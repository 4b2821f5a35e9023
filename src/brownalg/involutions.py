"""Catalog of order-2 maps on the algebra tower, fixed-point subalgebras,
gradings, conjugacy transport, and the descriptor language.

Octonion-level generators: f_p (second doubling half multiplied by a
unit-norm base quaternion p), c_w (conjugation of both halves by an
invertible base quaternion), and the anti-diagonal pair-swap t*.
Albert-level: lifts of octonion automorphisms, the diagonal-sign map
s = U_{diag(1,-1,-1)}, the transpose-and-swap map on the Tits model, torus
elements, and the U_V bridge between the varpi and s.varpi fixed algebras.
Every automorphism check, on the octonions and on J, is
`linmaps.is_aut_member`; `Catalog.realize` lifts each J atom to B once, with
`BrownAlgebra.lift_inv`, the one Brown lift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .albert import AlbertAlgebra, AlbertElem, hermitian, tits
from .brown import BrownAlgebra
from .cayley import CDAlgebra, CompElem, find_skew_unit
from .errors import (
    ArityMismatch,
    CarrierMismatch,
    ModelMismatch,
    NotAutomorphism,
    NotOrderTwo,
    NotUnitNorm,
    NoValidOrdering,
    SingularElement,
    ZeroParameter,
)
from .fields import FieldSpec
from .kernels import MulTable
from . import linalg
from .linmaps import (
    LinMap,
    block_diag_map,
    dagger,
    is_aut_member,
    is_automorphism,
)

import random
import re


# -- octonion-level automorphisms -------------------------------------------

def _base_of(octonions: CDAlgebra) -> CDAlgebra:
    if octonions.dim != 8:
        raise ValueError("need a dimension-8 composition algebra")
    return octonions.base_algebra()


def _as_base_coords(octonions: CDAlgebra, p) -> tuple:
    base = _base_of(octonions)
    if isinstance(p, CompElem):
        if p.algebra == base:
            return p.coords
        if p.algebra == octonions:
            if any(p.coords[4:]):
                raise NotUnitNorm("element does not lie in the quaternion base")
            return p.coords[:4]
        raise CarrierMismatch("element of an unrelated algebra")
    return base.element(p).coords


def make_t(octonions: CDAlgebra, p) -> LinMap:
    """f_p(a1, a2) = (a1, p a2) for p in the quaternion base with q(p) = 1;
    an octonion automorphism, of order 2 iff p^2 = e."""
    base = _base_of(octonions)
    pc = _as_base_coords(octonions, p)
    if base.qnorm_raw(pc) != octonions.field.one():
        raise NotUnitNorm("f_p needs q(p) = 1")
    m = octonions.linmap_of(lambda x: x[:4] + base.mul_raw(pc, x[4:]))
    if not is_aut_member(m, octonions):
        raise NotAutomorphism("f_p failed the automorphism check")
    return m


def conj_by(octonions: CDAlgebra, w) -> LinMap:
    """c_w(a1, a2) = (w a1 w^-1, w a2 w^-1) for invertible w in the base."""
    base = _base_of(octonions)
    wc = _as_base_coords(octonions, w)
    f = octonions.field
    qw = base.qnorm_raw(wc)
    if not qw:
        raise ZeroParameter("conjugation needs an invertible base element")
    qi = f.inv(qw)
    winv = tuple(f.mul(qi, v) for v in base.conj_raw(wc))

    def cw(a):
        return base.mul_raw(base.mul_raw(wc, a), winv)

    m = octonions.linmap_of(lambda x: cw(x[:4]) + cw(x[4:]))
    if not is_aut_member(m, octonions):
        raise NotAutomorphism("c_w failed the automorphism check")
    return m


def make_t_star(octonions: CDAlgebra) -> LinMap:
    """The anti-diagonal pair swap on both doubling halves: each half's
    coordinates in reverse order.  On the split base it is conjugation by
    (0 1; 1 0), an automorphism for every kappa; on a doubled chain it moves
    the unit e_0, and NoValidOrdering is raised."""
    m = octonions.linmap_of(lambda x: x[3::-1] + x[:3:-1])
    if not is_aut_member(m, octonions):
        raise NoValidOrdering(
            "no within-block ordering makes the anti-diagonal map an automorphism; "
            "the composition algebra is probably not the default split model"
        )
    return m


def make_canonical_t(octonions: CDAlgebra) -> LinMap:
    """f_{-e}: negate the second doubling half; fixes the quaternion base."""
    return make_t(octonions, [-1, 0, 0, -1] if octonions.split_base else [-1, 0, 0, 0])


# -- albert-level maps --------------------------------------------------------

def lift_c_to_j(t: LinMap, albert: AlbertAlgebra) -> LinMap:
    """t-hat(xi; a, b, c) = (xi; t a, t b, t c)."""
    if albert.model != "her":
        raise ModelMismatch("octonion lifts live on the Hermitian model")
    if not is_aut_member(t, albert.octonions):
        raise NotAutomorphism("lift_c_to_j needs an octonion automorphism")
    diagonal = LinMap(linalg.identity(3, albert.field), albert.field, "k3", "k3")
    return block_diag_map((diagonal, t, t, t), albert.carrier, albert.basis_tag)


def make_s(albert: AlbertAlgebra) -> LinMap:
    """U_{diag(1,-1,-1)}: (xi; a, b, c) -> (xi; a, -b, -c); fixes beth."""
    if albert.model != "her":
        raise ModelMismatch("s lives on the Hermitian model")
    sprime = albert.diag(1, -1, -1)
    return albert.uop_map(sprime.coords)


def make_theta_tits(albert: AlbertAlgebra) -> LinMap:
    """theta(a0, a1, a2) = (a0^T, a2^T, a1^T) on the first Tits construction."""
    if albert.model != "tits":
        raise ModelMismatch("theta lives on the first Tits construction")
    if albert.varsigma != albert.field.one():
        raise ModelMismatch("theta needs varsigma = 1")

    def tr(a):  # a flat row-major 3x3 block, transposed
        return a[0::3] + a[1::3] + a[2::3]

    return albert.linmap_of(lambda x: tr(x[:9]) + tr(x[18:]) + tr(x[9:18]))


def _diag3_det1(f, x1, x2):
    zero = f.zero()
    x3 = f.inv(f.mul(x1, x2))
    return ((x1, zero, zero), (zero, x2, zero), (zero, zero, x3))


# the number of torus parameters at each level, and the level of each number
_TORUS_ARITY = {"G2": 2, "F4": 4, "E6": 6}
_TORUS_LEVEL = {k: level for level, k in _TORUS_ARITY.items()}


def make_torus_element(algebra, params, level: str) -> LinMap:
    """Split-torus elements.  G2: c_{diag(eta nu, 1)} . f_{diag(nu^-1, nu)} on
    the octonions (matches the displayed diagonal).  F4: phi(U, U, V); E6:
    phi(U, V, W) with U, V, W = diag(x1, x2, (x1 x2)^-1)."""
    arity = _TORUS_ARITY.get(level)
    if arity is None:
        raise ValueError(f"unknown level {level!r}")
    f = algebra.field
    params = tuple(map(f.coerce, params))
    if len(params) != arity:
        raise ArityMismatch(f"level {level} needs {arity} parameters, got {len(params)}")
    if any(not p for p in params):
        raise ZeroParameter("torus parameters must be nonzero")
    if level == "G2":
        if not isinstance(algebra, CDAlgebra) or algebra.dim != 8:
            raise CarrierMismatch("G2 torus lives on a dimension-8 composition algebra")
        eta, nu = params
        zero = f.zero()
        w = (f.mul(eta, nu), zero, zero, f.one())
        p = (f.inv(nu), zero, zero, nu)
        return conj_by(algebra, w).compose(make_t(algebra, p))
    if not isinstance(algebra, AlbertAlgebra) or algebra.model != "tits":
        raise CarrierMismatch("F4/E6 torus elements live on the first Tits construction")
    if level == "F4":
        u1, u2, v1, v2 = params
        u = _diag3_det1(f, u1, u2)
        v = _diag3_det1(f, v1, v2)
        return algebra.linmap(algebra.tits_phi_matrix(u, u, v))
    u1, u2, v1, v2, w1, w2 = params
    return algebra.linmap(algebra.tits_phi_matrix(
        _diag3_det1(f, u1, u2), _diag3_det1(f, v1, v2), _diag3_det1(f, w1, w2)
    ))


# -- fixed subalgebras and gradings -------------------------------------------

@dataclass(frozen=True)
class FixedSubalgebra:
    dimension: int
    basis: tuple
    product_closed: bool
    involution_closed: bool | None


def _context_product(phi: LinMap, context):
    """(table, involution or None) of the carrier algebra: its `MulTable`,
    and the exchange involution, a coordinate swap, on Brown space."""
    if phi.basis_tag != context.basis_tag:
        raise CarrierMismatch("map and algebra bases differ")
    involution = context.binv_raw if isinstance(context, BrownAlgebra) else None
    return context.table, involution


def _eigen_span(phi: LinMap, eigval):
    """(basis, span, ints): a basis of phi's eigenspace for eigval
    (`LinMap.eigenbasis`), its `linalg.IntSpan` on the integer forms of that
    basis and its free columns, and those integer vectors; no second
    elimination."""
    basis, free, forms = phi.eigenbasis(eigval)
    span = linalg.IntSpan(forms, free, phi.dim, phi.field)
    return basis, span, [ints for _, ints in forms]


def fixed_subalgebra(phi: LinMap, context) -> FixedSubalgebra:
    """Exact kernel of (phi - id) with closure verification under the carrier
    product (and the exchange involution on Brown space), on the integer
    forms of the basis vectors and the span of the kernel basis itself, so
    the map's integer form is eliminated once."""
    if not phi.order_divides_two():
        raise NotOrderTwo("fixed subalgebras are computed for maps with phi^2 = id")
    table, involution = _context_product(phi, context)
    basis, span, ints = _eigen_span(phi, 1)
    closed = True
    inv_closed = None
    if basis:
        closed = span.closed(table, ints)
        if involution is not None:
            inv_closed = all(span.contains(involution(v)) for v in ints)
    return FixedSubalgebra(len(basis), tuple(basis), closed, inv_closed)


def grade_decompose(phi: LinMap, context):
    """Eigenspace decomposition A = A+ + A- of an order <= 2 automorphism of
    any algebra of the tower, certified by the grading law alone:
    A+A+, A-A- in A+ and A+A-, A-A+ in A-, each checked on the eigenspace
    bases (`linalg.IntSpan.closed`).  When the two eigenspaces fill A, the
    law makes phi an automorphism: phi is 1 on A+ and -1 on A-, so
    phi(xy) = (x+ - x-)(y+ - y-) = phi(x) phi(y).  An automorphism of J
    keeps its trace form, so no form check is needed: a map that breaks the
    form fails the law and raises NotAutomorphism."""
    if not phi.order_divides_two():
        raise NotOrderTwo("grading needs phi^2 = id")
    table, _ = _context_product(phi, context)
    spans = {"+": _eigen_span(phi, 1), "-": _eigen_span(phi, -1)}
    plus, minus = spans["+"][0], spans["-"][0]
    if len(plus) + len(minus) != phi.dim:
        raise NotOrderTwo("eigenspaces do not fill the carrier (characteristic issue?)")
    law = {("+", "+"): "+", ("+", "-"): "-", ("-", "+"): "-", ("-", "-"): "+"}
    for (sa, sb), target in law.items():
        if not spans[target][1].closed(table, spans[sa][2], spans[sb][2]):
            raise NotAutomorphism("grading law fails; map is not an algebra automorphism")
    return tuple(plus), tuple(minus)


def conjugate_involution(g: LinMap, t: LinMap) -> LinMap:
    if not t.order_divides_two():
        raise NotOrderTwo("conjugation transport expects an order <= 2 map")
    return g.compose(t).compose(g.inverse_map())


def verify_conjugacy_transport(g: LinMap, t: LinMap, t2: LinMap) -> bool:
    """g maps fix(t) onto fix(t2): the images g(v) of a basis of fix(t) span
    fix(t2).  g need not be invertible."""
    return linalg.same_span([g.apply(v) for v in t.fixed_space()], t2.fixed_space(), g.field)


# -- the U_V bridge and outer fixed groups -------------------------------------

def make_uv_bridge(albert: AlbertAlgebra) -> LinMap:
    """U_V for V = h(1,0,0; v,0,0) with v found by exact lattice search:
    q(v) = -1, <v,e> = 0.  Then U_V^2 = s and the Brown lift carries the
    varpi-fixed algebra onto the (s.varpi)-fixed one."""
    if albert.model != "her":
        raise ModelMismatch("the U_V bridge lives on the Hermitian model")
    v = find_skew_unit(albert.octonions)
    z8 = [albert.field.zero()] * 8
    V = albert.her_element((1, 0, 0), v.coords, z8, z8)
    return albert.uop_map(V.coords)


def outer_fixed_condition(delta: LinMap, phi: LinMap, albert: AlbertAlgebra) -> bool:
    """Membership test for the fixed group of (phi . varpi)-type involutions:
    phi delta phi = dagger(delta) as exact matrices.  delta must preserve the
    cubic norm; `dagger` certifies it (`linmaps.is_inv_member`)."""
    if not phi.order_divides_two():
        raise NotOrderTwo("outer fixed condition needs phi^2 = id")
    dag = dagger(delta, albert)
    return phi.compose(delta).compose(phi) == dag


def isotope_automorphism_check(x: AlbertElem, y: AlbertElem) -> bool:
    """Whether U_x U_y (assumed order 2) is an automorphism of the y-isotope:
    multiplicative for {., y, .} and fixes the isotope unit y^-1."""
    alg = x.algebra
    if alg != y.algebra:
        raise ModelMismatch("x and y must live in the same view")
    f = alg.field
    nx, ny = alg.norm_raw(x.coords), alg.norm_raw(y.coords)
    if not nx or not ny:
        raise SingularElement("isotope check needs N(x) N(y) != 0")
    mm = alg.uop_map(x.coords).compose(alg.uop_map(y.coords))
    if not mm.order_divides_two():
        raise NotOrderTwo("U_x U_y does not square to the identity")
    iso = _isotope_table(alg.table, linalg.to_ints(y.coords, f)[1], f)
    return is_automorphism(mm, iso, alg.jinv_raw(y.coords))


def _isotope_table(table: MulTable, yi, f: FieldSpec) -> MulTable:
    """The y-isotope's table, in ints: {e_i, y, e_j} =
    (e_i.y).e_j + (e_j.y).e_i - (e_i.e_j).y on the integer table, D^2 d_y
    times the triple product for y = yi / d_y, at every basis pair (i, j)
    with the factors in that order.  It is read off two sets of integer
    rows: u_i = D d_y (e_i.y), column i of the right multiplication by y
    (`MulTable.left_ints` of the opposite table), and the table's own
    (`MulTable.int_table`).  Then D^2 d_y {e_i, y, e_j} is column j of
    `left_ints(u_i)`, plus column i of `left_ints(u_j)`, minus
    sum c u_k over the entries (i, j, k, c) of the integer table."""
    n = table.n
    rows = table.int_table()[1]
    u = list(zip(*table.opposite().left_ints(yi)))
    left = [list(zip(*table.left_ints(v))) for v in u]  # left[i][j] = D u_i.e_j
    entries = []
    for i in range(n):
        ab = [[] for _ in range(n)]
        for j, k, c in rows[i]:
            ab[j].append((k, c))
        for j in range(n):
            acc = [a + b for a, b in zip(left[i][j], left[j][i])]
            for k, c in ab[j]:
                acc = [a - c * w for a, w in zip(acc, u[k])]
            if any(acc):
                entries += [(i, j, k, c)
                            for k, c in enumerate(linalg.lowest_terms(acc, 1, f)[1]) if c]
    return MulTable(n, entries)


# -- catalog and descriptors ----------------------------------------------------

# the "." between atoms of a descriptor; a "." before a digit is a decimal point
_ATOM_SEP = re.compile(r"\.(?!\d)")


class Catalog:
    """Canonical algebras and named order-2 maps over one field.

    Hermitian-model atoms: "s", "t" (lift of f_{-e}), "t*", "varpi" (B only).
    Torus atoms: "t:eta,nu" (G2, lifted to J), "t:u1,u2,v1,v2" (F4) and
    "t:u1,...,w2" (E6) on the first Tits construction.  Composition with
    "."; a "." followed by a digit is a decimal point of a parameter, so
    "t:0.5,2" is one atom.  An atom's model is the one its J map's basis tag
    names; each atom's J map is built, and lifted to B with
    `BrownAlgebra.lift_inv`, at most once per catalog.
    """

    # the order-2 atoms of each model, whose twisted diagonals atom.varpi
    # are named fixed shapes
    INVOLUTIONS = {"her": ("s", "t", "t*"), "tits": ("t:1,1,1,1,-1,1",)}

    def __init__(self, field: FieldSpec):
        self.field = field
        self.octonions = CDAlgebra.split_octonions(field)
        self.J = hermitian(self.octonions)
        self.B = BrownAlgebra(self.J)
        # (atom, "J" | "B") -> the atom's map on J or B of its model, and
        # ("varpi", Brown basis tag) -> varpi of that Brown algebra
        self._maps = {}

    @functools.cached_property
    def Jt(self) -> AlbertAlgebra:
        return tits(self.field)

    @functools.cached_property
    def Bt(self) -> BrownAlgebra:
        return BrownAlgebra(self.Jt)

    def algebra_of(self, m: LinMap):
        """The catalog algebra (J, B, Jt or Bt) that the map m lives on."""
        for name in ("J", "B", "Jt", "Bt"):
            algebra = getattr(self, name)
            if m.basis_tag == algebra.basis_tag:
                return algebra
        raise CarrierMismatch(f"map on {m.basis_tag!r} lives on no catalog algebra")

    def _brown_of(self, jmap: LinMap) -> BrownAlgebra:
        return self.B if self.algebra_of(jmap) is self.J else self.Bt

    def _atom(self, text: str, space: str) -> LinMap:
        """The map of one atom other than varpi on J or on B of its model."""
        key = (text, space)
        if key not in self._maps:
            if space == "B":
                jmap = self._atom(text, "J")
                self._maps[key] = self._brown_of(jmap).lift_inv(jmap)
            else:
                self._maps[key] = self._build_j(text)
        return self._maps[key]

    def _varpi(self, brown: BrownAlgebra) -> LinMap:
        key = ("varpi", brown.basis_tag)
        if key not in self._maps:
            self._maps[key] = brown.varpi()
        return self._maps[key]

    def _build_j(self, text: str) -> LinMap:
        if ":" in text:
            name, _, arg = text.partition(":")
            if name != "t":
                raise ValueError(f"unknown parameterized descriptor {text!r}")
            params = [self.field.parse_scalar(tok) for tok in arg.split(",")]
            level = _TORUS_LEVEL.get(len(params))
            if level is None:
                raise ArityMismatch("torus descriptors take 2, 4 or 6 parameters")
            if level == "G2":
                return lift_c_to_j(make_torus_element(self.octonions, params, level), self.J)
            return make_torus_element(self.Jt, params, level)
        if text == "s":
            return make_s(self.J)
        if text == "t":
            return lift_c_to_j(make_canonical_t(self.octonions), self.J)
        if text == "t*":
            return lift_c_to_j(make_t_star(self.octonions), self.J)
        raise ValueError(f"unknown descriptor atom {text!r}")

    def realize(self, descriptor: str, space: str) -> LinMap:
        """Realize a dotted descriptor on space "J" or "B" of its atoms' model."""
        if space not in ("J", "B"):
            raise ValueError("space must be 'J' or 'B'")
        if not descriptor.strip():
            raise ValueError("empty descriptor")
        tokens = _ATOM_SEP.split(descriptor)
        params = [arg for tok in tokens if ":" in tok for arg in tok.partition(":")[2].split(",")]
        if not all(tok.strip() for tok in tokens + params):
            raise ValueError(f"empty atom or parameter in descriptor {descriptor!r}")
        atoms = [tok.strip() for tok in tokens]
        jmaps = []
        for atom in atoms:
            if atom != "varpi":
                jmaps.append(self._atom(atom, "J"))
            elif space != "B":
                raise ValueError("varpi only acts on the Brown algebra")
        if len({m.basis_tag for m in jmaps}) > 1:
            raise CarrierMismatch("cannot mix Hermitian and Tits atoms in one descriptor")
        brown = self._brown_of(jmaps[0]) if jmaps else self.B
        pieces = [self._varpi(brown) if atom == "varpi" else self._atom(atom, space)
                  for atom in atoms]
        return functools.reduce(LinMap.compose, pieces)

    def realize_involution(self, descriptor: str, space: str) -> LinMap:
        m = self.realize(descriptor, space)
        if m.is_identity() or not m.order_divides_two():
            raise NotOrderTwo(f"descriptor {descriptor!r} does not have order 2")
        return m

    def random_j_automorphism(self, rng: random.Random) -> LinMap:
        """Random product of catalog automorphisms of J (for transport tests)."""
        f = self.field
        base = self.octonions.base_algebra()
        out = self.J.linmap(linalg.identity(self.J.dim, f))
        for _ in range(3):
            kind = rng.randrange(3)
            if kind == 0:
                w = f.sample_vector(rng, 4, 3)
                if not base.qnorm_raw(w):
                    continue
                out = out.compose(lift_c_to_j(conj_by(self.octonions, w), self.J))
            elif kind == 1:
                signs = [1 if rng.randrange(2) else -1 for _ in range(3)]
                d = self.J.diag(*signs)
                out = out.compose(self.J.uop_map(d.coords))
            else:
                p23 = self.J.her_element((1, 0, 0), self.octonions.unit_coords,
                                         [f.zero()] * 8, [f.zero()] * 8)
                out = out.compose(self.J.uop_map(p23.coords))
        return out
