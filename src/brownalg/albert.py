"""The 27-dimensional Albert algebra in two models.

Hermitian model: gamma-Hermitian 3x3 matrices over an octonion algebra C,
coordinates (xi1, xi2, xi3, a-block, b-block, c-block) with a at position
(2,3), b at (3,1), c at (1,2) and the remaining entries forced by
x_ji = gamma_j^-1 gamma_i conj(x_ij).

First Tits construction: three copies of Mat3(k) with twisted norm and sharp;
coordinates are the three matrices row-major.

The cubic data is computed intrinsically from the Jordan product (sharp from
the quadratic trace, N = Tr(x#, x)/3); a per-instance closed form is fitted
against the intrinsic route and used as the fast evaluator after validation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .cayley import CDAlgebra
from .errors import (
    AlgebraMismatch,
    ModelMismatch,
    NotUnimodular,
    SingularElement,
    ZeroMultiplier,
)
from .fields import FieldSpec, Scalar
from .kernels import MulTable
from .linalg import mat_mul
from .linmaps import ALBERT, LinMap

DIM = 27


# -- 3x3 matrix helpers over a field (used by the Tits model) ---------------

def mat3_mul(f, A, B):
    return tuple(
        tuple(
            f.add(f.add(f.mul(A[i][0], B[0][j]), f.mul(A[i][1], B[1][j])),
                  f.mul(A[i][2], B[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


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


def mat3_identity(f):
    one, zero = f.one(), f.zero()
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat3_from_flat(flat):
    return (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))


def mat3_inverse(f, A):
    d = mat3_det(f, A)
    if not d:
        raise SingularElement("singular 3x3 matrix")
    di = f.inv(d)
    adj = mat3_adj(f, A)
    return tuple(tuple(f.mul(di, v) for v in row) for row in adj)


class AlbertAlgebra:
    """One model of the Albert algebra over an exact field."""

    def __init__(self, model: str, field: FieldSpec, octonions: CDAlgebra | None = None,
                 gamma=None, varsigma=None):
        field._need_arith()
        self.model = model
        self.field = field
        f = field
        if model == "her":
            if octonions is None or octonions.dim != 8:
                raise ValueError("Hermitian model needs a dimension-8 composition algebra")
            if octonions.field != field:
                raise AlgebraMismatch("octonion algebra over a different field")
            gamma = tuple(
                f.from_int(g) if isinstance(g, int) else g
                for g in (gamma if gamma is not None else (1, 1, 1))
            )
            if len(gamma) != 3 or any(not g for g in gamma):
                raise ValueError("gamma must be three nonzero scalars")
            self.octonions = octonions
            self.gamma = gamma
            self.varsigma = None
            self.basis_tag = f"her:{octonions.descriptor}:gamma={','.join(f.scalar_str(g) for g in gamma)}"
        elif model == "tits":
            self.octonions = None
            self.gamma = None
            vs = f.from_int(varsigma if varsigma is not None else 1) \
                if isinstance(varsigma, int) or varsigma is None else varsigma
            if not vs:
                raise ValueError("varsigma must be nonzero")
            self.varsigma = vs
            self.basis_tag = f"tits:{field}:varsigma={f.scalar_str(vs)}"
        else:
            raise ValueError(f"unknown model {model!r}")

        self.unit_coords = self._unit_coords()
        self.table = MulTable(DIM, self._build_table())
        self.trvec = self._trace_vector()
        self.gram = self._build_gram()
        self._gram_sparse = tuple(
            (i, j, v) for i, row in enumerate(self.gram) for j, v in enumerate(row) if v
        )
        self._norm_coeffs = self._fit_norm_closed() if model == "her" else None
        self._validate_norm(samples=8)

    # -- construction internals --------------------------------------------

    def _unit_coords(self):
        f = self.field
        one, zero = f.one(), f.zero()
        v = [zero] * DIM
        if self.model == "her":
            v[0] = v[1] = v[2] = one
        else:
            v[0] = v[4] = v[8] = one
        return tuple(v)

    def _her_full_matrix(self, coords):
        """3x3 matrix of octonion coordinate vectors realizing the element."""
        f, C, g = self.field, self.octonions, self.gamma
        a = coords[3:11]
        b = coords[11:19]
        c = coords[19:27]
        e = C.unit_coords
        def smul(s, v):
            return tuple(f.mul(s, t) for t in v)
        M = [[None] * 3 for _ in range(3)]
        for i in range(3):
            M[i][i] = smul(coords[i], e)
        M[0][1] = tuple(c)
        M[1][0] = smul(f.div(g[0], g[1]), C.conj_raw(c))
        M[1][2] = tuple(a)
        M[2][1] = smul(f.div(g[1], g[2]), C.conj_raw(a))
        M[2][0] = tuple(b)
        M[0][2] = smul(f.div(g[2], g[0]), C.conj_raw(b))
        return M

    def _her_extract(self, M):
        coords = [M[0][0][0], M[1][1][0], M[2][2][0]]
        coords += list(M[1][2]) + list(M[2][0]) + list(M[0][1])
        return tuple(coords)

    def _her_jmul_direct(self, x, y):
        f, C = self.field, self.octonions
        Mx = self._her_full_matrix(x)
        My = self._her_full_matrix(y)
        half = f.half()
        out = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = [f.zero()] * 8
                for k in range(3):
                    for term in (C.mul_raw(Mx[i][k], My[k][j]), C.mul_raw(My[i][k], Mx[k][j])):
                        acc = [f.add(u, v) for u, v in zip(acc, term)]
                out[i][j] = tuple(f.mul(half, v) for v in acc)
        return self._her_extract(out)

    def _tits_sharp_cross(self, x, y):
        """Polarized Tits sharp: x # y."""
        f = self.field
        vs, vsi = self.varsigma, f.inv(self.varsigma)
        a0, a1, a2 = (mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3))
        b0, b1, b2 = (mat3_from_flat(y[9 * r: 9 * r + 9]) for r in range(3))
        def adjp(A, B):
            s = tuple(tuple(f.add(A[i][j], B[i][j]) for j in range(3)) for i in range(3))
            out = mat3_adj(f, s)
            oa, ob = mat3_adj(f, A), mat3_adj(f, B)
            return tuple(
                tuple(f.sub(f.sub(out[i][j], oa[i][j]), ob[i][j]) for j in range(3))
                for i in range(3)
            )
        def msub2(A, B, C):
            return tuple(
                tuple(f.sub(f.sub(A[i][j], B[i][j]), C[i][j]) for j in range(3))
                for i in range(3)
            )
        def mscale(s, A):
            return tuple(tuple(f.mul(s, v) for v in row) for row in A)
        p0 = msub2(adjp(a0, b0), mat3_mul(f, a1, b2), mat3_mul(f, b1, a2))
        p1 = msub2(mscale(vsi, adjp(a2, b2)), mat3_mul(f, a0, b1), mat3_mul(f, b0, a1))
        p2 = msub2(mscale(vs, adjp(a1, b1)), mat3_mul(f, a2, b0), mat3_mul(f, b2, a0))
        flat = []
        for m in (p0, p1, p2):
            for row in m:
                flat.extend(row)
        return tuple(flat)

    def _tits_trform_direct(self, x, y):
        f = self.field
        xs = [mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3)]
        ys = [mat3_from_flat(y[9 * r: 9 * r + 9]) for r in range(3)]
        acc = mat3_tr(f, mat3_mul(f, xs[0], ys[0]))
        acc = f.add(acc, mat3_tr(f, mat3_mul(f, xs[1], ys[2])))
        acc = f.add(acc, mat3_tr(f, mat3_mul(f, xs[2], ys[1])))
        return acc

    def _tits_jmul_direct(self, x, y):
        """Product from the sharped cubic form:
        x.y = (x#y + Tr(x) y + Tr(y) x - Sr(x,y) 1)/2."""
        f = self.field
        half = f.half()
        trx = f.add(f.add(x[0], x[4]), x[8])
        try_ = f.add(f.add(y[0], y[4]), y[8])
        sr = f.sub(f.mul(trx, try_), self._tits_trform_direct(x, y))
        sc = self._tits_sharp_cross(x, y)
        e = self.unit_coords
        return tuple(
            f.mul(half, f.sub(f.add(f.add(sc[k], f.mul(trx, y[k])), f.mul(try_, x[k])),
                              f.mul(sr, e[k])))
            for k in range(DIM)
        )

    def _build_table(self):
        f = self.field
        zero = f.zero()
        direct = self._her_jmul_direct if self.model == "her" else self._tits_jmul_direct
        basis = []
        one = f.one()
        for i in range(DIM):
            v = [zero] * DIM
            v[i] = one
            basis.append(tuple(v))
        entries = []
        for i in range(DIM):
            for j in range(i, DIM):
                prod = direct(basis[i], basis[j])
                for k, cval in enumerate(prod):
                    if cval:
                        entries.append((i, j, k, cval))
                        if i != j:
                            entries.append((j, i, k, cval))
        return entries

    def _trace_vector(self):
        f = self.field
        v = [f.zero()] * DIM
        if self.model == "her":
            v[0] = v[1] = v[2] = f.one()
        else:
            v[0] = v[4] = v[8] = f.one()
        return tuple(v)

    def _build_gram(self):
        """G[i][j] = Tr(e_i . e_j), assembled from the product table."""
        f = self.field
        rows = [[f.zero()] * DIM for _ in range(DIM)]
        for i, j, k, c in self.table.entries:
            t = self.trvec[k]
            if t:
                rows[i][j] = f.add(rows[i][j], f.mul(t, c))
        return tuple(tuple(r) for r in rows)

    # -- elements ------------------------------------------------------------

    def element(self, coords) -> "AlbertElem":
        f = self.field
        coords = tuple(f.from_int(c) if isinstance(c, int) else c for c in coords)
        if len(coords) != DIM:
            raise ValueError("need 27 coordinates")
        return AlbertElem(self, coords)

    def her_element(self, xi, a, b, c) -> "AlbertElem":
        if self.model != "her":
            raise ModelMismatch("her_element on the Tits model")
        get = lambda z: z.coords if hasattr(z, "coords") else tuple(z)
        return self.element(tuple(xi) + get(a) + get(b) + get(c))

    def diag(self, x1, x2, x3) -> "AlbertElem":
        f = self.field
        zero = [f.zero()] * 8
        if self.model == "her":
            return self.her_element((x1, x2, x3), zero, zero, zero)
        m = [x1, 0, 0, 0, x2, 0, 0, 0, x3]
        return self.element(m + [0] * 18)

    def tits_element(self, a0, a1, a2) -> "AlbertElem":
        if self.model != "tits":
            raise ModelMismatch("tits_element on the Hermitian model")
        flat = []
        for m in (a0, a1, a2):
            for row in m:
                flat.extend(row)
        return self.element(flat)

    def unit(self) -> "AlbertElem":
        return AlbertElem(self, self.unit_coords)

    def zero(self) -> "AlbertElem":
        return AlbertElem(self, tuple(self.field.zero() for _ in range(DIM)))

    def basis(self):
        f = self.field
        one, zero = f.one(), f.zero()
        return [
            AlbertElem(self, tuple(one if i == j else zero for j in range(DIM)))
            for i in range(DIM)
        ]

    def sample(self, rng: random.Random, bound: int = 4) -> "AlbertElem":
        f = self.field
        return AlbertElem(self, tuple(f.sample_raw(rng, bound) for _ in range(DIM)))

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

    def jmul_raw(self, x, y):
        return self.table.apply(x, y, self.field)

    def tr_raw(self, x):
        f = self.field
        if self.model == "her":
            return f.add(f.add(x[0], x[1]), x[2])
        return f.add(f.add(x[0], x[4]), x[8])

    def trform_raw(self, x, y):
        f = self.field
        acc = f.zero()
        for i, j, g in self._gram_sparse:
            xv = x[i]
            if xv:
                yv = y[j]
                if yv:
                    acc = f.add(acc, f.mul(g, f.mul(xv, yv)))
        return acc

    def sr_raw(self, x):
        f = self.field
        t = self.tr_raw(x)
        return f.mul(f.half(), f.sub(f.mul(t, t), self.trform_raw(x, x)))

    def sharp_raw(self, x):
        f = self.field
        sq = self.jmul_raw(x, x)
        t = self.tr_raw(x)
        s = self.sr_raw(x)
        e = self.unit_coords
        return tuple(
            f.add(f.sub(sq[k], f.mul(t, x[k])), f.mul(s, e[k])) for k in range(DIM)
        )

    def cross_raw(self, x, y):
        """x # y = 2 x.y - Tr(x) y - Tr(y) x + (Tr(x)Tr(y) - Tr(x,y)) e."""
        f = self.field
        two = f.from_int(2)
        p = self.jmul_raw(x, y)
        tx, ty = self.tr_raw(x), self.tr_raw(y)
        s = f.sub(f.mul(tx, ty), self.trform_raw(x, y))
        e = self.unit_coords
        return tuple(
            f.add(f.sub(f.sub(f.mul(two, p[k]), f.mul(tx, y[k])), f.mul(ty, x[k])),
                  f.mul(s, e[k]))
            for k in range(DIM)
        )

    def norm_intrinsic_raw(self, x):
        f = self.field
        third = f.inv(f.from_int(3))
        return f.mul(third, self.trform_raw(self.sharp_raw(x), x))

    def _fit_norm_closed(self):
        """Coefficients (A, B, C, D) of
        N = x1 x2 x3 - A x1 q(a) - B x2 q(b) - C x3 q(c) + D <ab, conj(c)>,
        fitted from the intrinsic norm at sparse probes."""
        f, C = self.field, self.octonions
        zero = f.zero()
        e8 = C.unit_coords
        z8 = tuple(zero for _ in range(8))
        def probe(xi, a, b, c):
            return self.norm_intrinsic_raw(tuple(xi) + a + b + c)
        one = f.one()
        A = f.neg(probe((one, zero, zero), e8, z8, z8))
        B = f.neg(probe((zero, one, zero), z8, e8, z8))
        Cc = f.neg(probe((zero, zero, one), z8, z8, e8))
        denom = C.bilin_raw(C.mul_raw(e8, e8), C.conj_raw(e8))
        D = f.div(probe((zero, zero, zero), e8, e8, e8), denom)
        return (A, B, Cc, D)

    def norm_raw(self, x):
        f = self.field
        if self.model == "tits":
            vs = self.varsigma
            a0, a1, a2 = (mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3))
            acc = f.add(mat3_det(f, a0), f.mul(vs, mat3_det(f, a1)))
            acc = f.add(acc, f.mul(f.inv(vs), mat3_det(f, a2)))
            return f.sub(acc, mat3_tr(f, mat3_mul(f, mat3_mul(f, a0, a1), a2)))
        A, B, Cc, D = self._norm_coeffs
        C = self.octonions
        a, b, c = x[3:11], x[11:19], x[19:27]
        acc = f.mul(f.mul(x[0], x[1]), x[2])
        qa = C.qnorm_raw(a)
        if qa:
            acc = f.sub(acc, f.mul(A, f.mul(x[0], qa)))
        qb = C.qnorm_raw(b)
        if qb:
            acc = f.sub(acc, f.mul(B, f.mul(x[1], qb)))
        qc = C.qnorm_raw(c)
        if qc:
            acc = f.sub(acc, f.mul(Cc, f.mul(x[2], qc)))
        if any(a) and any(b) and any(c):
            t = C.bilin_raw(C.mul_raw(a, b), C.conj_raw(c))
            acc = f.add(acc, f.mul(D, t))
        return acc

    def _validate_norm(self, samples: int):
        rng = random.Random(20240)
        for _ in range(samples):
            x = tuple(self.field.sample_raw(rng, 3) for _ in range(DIM))
            if self.norm_raw(x) != self.norm_intrinsic_raw(x):
                raise RuntimeError("internal: closed norm disagrees with intrinsic norm")

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

    def uop_matrix(self, x):
        """U_x = 2 L_x^2 - L_{x^2} as a 27x27 matrix."""
        f = self.field
        lx = self.table.left_matrix(x, f)
        lx2 = self.table.left_matrix(self.jmul_raw(x, x), f)
        sq = mat_mul(lx, lx, f)
        two = f.from_int(2)
        return tuple(
            tuple(f.sub(f.mul(two, sq[i][j]), lx2[i][j]) for j in range(DIM))
            for i in range(DIM)
        )

    def gram_vec(self, v):
        """G v for the trace-form Gram matrix (sparse)."""
        f = self.field
        out = [f.zero()] * DIM
        for i, j, g in self._gram_sparse:
            vv = v[j]
            if vv:
                out[i] = f.add(out[i], f.mul(g, vv))
        return tuple(out)

    def uop_matrix_sharp(self, x):
        """U_x y = Tr(x, y) x - x# # y assembled as a matrix: the cross with
        x# expands into the left multiplication by x# plus rank-one terms."""
        f = self.field
        xs = self.sharp_raw(x)
        lxs = self.table.left_matrix(xs, f)
        gx = self.gram_vec(x)
        gxs = self.gram_vec(xs)
        trxs = self.tr_raw(xs)
        e = self.unit_coords
        tv = self.trvec
        two = f.from_int(2)
        rows = []
        for i in range(DIM):
            row = []
            xi, xsi, ei = x[i], xs[i], e[i]
            for j in range(DIM):
                v = f.sub(f.mul(xi, gx[j]), f.mul(two, lxs[i][j]))
                if i == j:
                    v = f.add(v, trxs)
                if xsi and tv[j]:
                    v = f.add(v, f.mul(xsi, tv[j]))
                if ei:
                    v = f.sub(v, f.mul(ei, f.sub(f.mul(trxs, tv[j]), gxs[j])))
                row.append(v)
            rows.append(tuple(row))
        return tuple(rows)

    def jinv_raw(self, x):
        n = self.norm_raw(x)
        if not n:
            raise SingularElement("cubic norm vanishes")
        ninv = self.field.inv(n)
        return tuple(self.field.mul(ninv, v) for v in self.sharp_raw(x))

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

    def tits_phi_raw(self, u, v, w, x):
        if self.model != "tits":
            raise ModelMismatch("tits_phi lives on the first Tits construction")
        f = self.field
        one = f.one()
        for m in (u, v, w):
            if mat3_det(f, m) != one:
                raise NotUnimodular("tits_phi factors must have determinant 1")
        vi, wi, ui = mat3_inverse(f, v), mat3_inverse(f, w), mat3_inverse(f, u)
        a0, a1, a2 = (mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3))
        p0 = mat3_mul(f, mat3_mul(f, u, a0), vi)
        p1 = mat3_mul(f, mat3_mul(f, v, a1), wi)
        p2 = mat3_mul(f, mat3_mul(f, w, a2), ui)
        flat = []
        for m in (p0, p1, p2):
            for row in m:
                flat.extend(row)
        return tuple(flat)

    def __eq__(self, other):
        return (
            isinstance(other, AlbertAlgebra)
            and self.basis_tag == other.basis_tag
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.basis_tag, self.field))

    def __repr__(self):
        return f"AlbertAlgebra({self.basis_tag})"


def hermitian(octonions: CDAlgebra, gamma=None) -> AlbertAlgebra:
    return AlbertAlgebra("her", octonions.field, octonions=octonions, gamma=gamma)


def tits(field: FieldSpec, varsigma=1) -> AlbertAlgebra:
    return AlbertAlgebra("tits", field, varsigma=varsigma)


def split_albert(field: FieldSpec) -> AlbertAlgebra:
    """Her3(split octonions, id), the default split model."""
    return hermitian(CDAlgebra.split_octonions(field))


@dataclass(frozen=True)
class AlbertElem:
    algebra: AlbertAlgebra
    coords: tuple

    def _check(self, other):
        if not isinstance(other, AlbertElem) or other.algebra != self.algebra:
            raise ModelMismatch("elements of different Albert algebra views")

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        return AlbertElem(self.algebra, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        return AlbertElem(self.algebra, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        f = self.algebra.field
        return AlbertElem(self.algebra, tuple(f.neg(a) for a in self.coords))

    def scale(self, c):
        f = self.algebra.field
        c = f.from_int(c) if isinstance(c, int) else c
        return AlbertElem(self.algebra, tuple(f.mul(c, a) for a in self.coords))

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

    def to_json(self) -> str:
        f = self.algebra.field
        s = f.scalar_str
        if self.algebra.model == "her":
            return json.dumps(
                {
                    "model": "her",
                    "gamma": [s(g) for g in self.algebra.gamma],
                    "xi": [s(v) for v in self.xi],
                    "a": [s(v) for v in self.a],
                    "b": [s(v) for v in self.b],
                    "c": [s(v) for v in self.c],
                }
            )
        return json.dumps(
            {
                "model": "tits",
                "varsigma": s(self.algebra.varsigma),
                "parts": [[s(v) for v in self.coords[9 * r: 9 * r + 9]] for r in range(3)],
            }
        )

    @staticmethod
    def from_json(algebra: AlbertAlgebra, text: str) -> "AlbertElem":
        d = json.loads(text)
        f = algebra.field
        if d["model"] != algebra.model:
            raise ModelMismatch(f"element is {d['model']}, algebra is {algebra.model}")
        if algebra.model == "her":
            coords = [f.parse_scalar(v) for v in d["xi"]]
            for key in ("a", "b", "c"):
                coords += [f.parse_scalar(v) for v in d[key]]
            return algebra.element(coords)
        coords = [f.parse_scalar(v) for part in d["parts"] for v in part]
        return algebra.element(coords)


# -- public operations -------------------------------------------------------

def jmul(x: AlbertElem, y: AlbertElem) -> AlbertElem:
    x._check(y)
    return AlbertElem(x.algebra, x.algebra.jmul_raw(x.coords, y.coords))


def cubic_data(x: AlbertElem):
    """(Tr, Sr, N) of the element as Scalars."""
    alg = x.algebra
    return (
        Scalar(alg.tr_raw(x.coords), alg.field),
        Scalar(alg.sr_raw(x.coords), alg.field),
        Scalar(alg.norm_raw(x.coords), alg.field),
    )


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
    alg = x.algebra
    return LinMap(alg.uop_matrix(x.coords), alg.field, ALBERT, alg.basis_tag)


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
    f = x.algebra.field
    lam = f.from_int(lam) if isinstance(lam, int) else lam
    return AlbertElem(x.algebra, x.algebra.phi_lambda_raw(lam, x.coords))


def nu_g(g, x: AlbertElem) -> AlbertElem:
    f = x.algebra.field
    g = f.from_int(g) if isinstance(g, int) else g
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
    one, zero = f.one(), f.zero()
    for i in range(8):
        a = [one if j == i else zero for j in range(8)]
        out.append(algebra.her_element((0, 0, 0), a, z8, z8))
    return out
