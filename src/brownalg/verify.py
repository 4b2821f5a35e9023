"""Named invariant suites behind the `verify` CLI command.

Every check is deterministic given (field, seed, samples): each draws its own
generator seeded by the check name, so suites can be reordered or run alone
without changing verdicts.

No product law of a linear map is decided at sample points.  The unit
laws, commutativity, the order-2 laws, the anti-automorphism laws of conj
and of the Brown involution (`linmaps.is_automorphism` onto the opposite
table, `kernels.MulTable.opposite`) and the Brown-product law of the lifts
(`linmaps.is_aut_member`) are certified on maps and basis pairs and draw
nothing.  The checks that draw samples test laws of higher degree at random
points (the composition law, alternativity, the sharp, U-operator, norm,
isotope and similarity laws, and phi U_x = U_{phi x} phi in
`check_elinvj`), or build maps from random elements and parameters: the
U_x of a random x of norm 1 (`check_brown_lifts`, `check_varpi_dagger`,
`check_dagger_laws`), torus parameters (`check_theta_torus_inversion`) and
random automorphisms (`check_transport`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .albert import beth_basis, mat3_det, mat3_from_flat, mat3_tr
from .brown import BrownAlgebra
from .cayley import CDAlgebra
from .errors import AlgebraError
from .fields import FieldSpec
from .involutions import (
    Catalog,
    conjugate_involution,
    fixed_subalgebra,
    grade_decompose,
    make_theta_tits,
    make_torus_element,
    make_uv_bridge,
    verify_conjugacy_transport,
)
from .linmaps import LinMap, dagger, is_aut_member, is_automorphism


class CheckFailure(Exception):
    pass


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


class Ctx:
    def __init__(self, field: FieldSpec, seed: int, samples: int):
        self.field = field
        self.seed = seed
        self.samples = samples
        self.cat = Catalog(field)

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{name}")

    def scaled(self, fraction: float, minimum: int = 5) -> int:
        return max(minimum, int(self.samples * fraction))


def _fail(msg: str):
    raise CheckFailure(msg)


def _unit_law_holds(alg) -> bool:
    """Whether x -> 1.x and x -> x.1 are both the identity map: D L_1 = d D I
    on the integer rows of the table and of its opposite
    (`MulTable.left_ints`), for the integer forms (d, u) of the unit and D
    of the table; an int difference over Q, reduced mod p over F_p."""
    f, table = alg.field, alg.table
    d, u = linalg.to_ints(alg.unit_coords, f)
    den = d * table.int_table()[0]
    return not any(f.sub(v, den * (i == j))
                   for t in (table, table.opposite())
                   for i, row in enumerate(t.left_ints(u)) for j, v in enumerate(row))


# -- composition suite ---------------------------------------------------------

def _oct_algebras(ctx):
    yield CDAlgebra(ctx.field, (1,))
    yield CDAlgebra(ctx.field, split_base=True)
    yield ctx.cat.octonions


def check_unit_law(ctx):
    for alg in _oct_algebras(ctx):
        if not _unit_law_holds(alg):
            _fail(f"unit law fails in {alg.basis_tag}")


def check_composition_law(ctx):
    rng = ctx.rng("cda-comp")
    f = ctx.field
    for alg in _oct_algebras(ctx):
        for _ in range(ctx.samples):
            x, y = alg.sample(rng).coords, alg.sample(rng).coords
            lhs = alg.qnorm_raw(alg.mul_raw(x, y))
            rhs = f.mul(alg.qnorm_raw(x), alg.qnorm_raw(y))
            if lhs != rhs:
                _fail(f"q(xy) != q(x)q(y) in {alg.basis_tag}: x={x} y={y}")


def check_alternativity(ctx):
    rng = ctx.rng("cda-alt")
    alg = ctx.cat.octonions
    for _ in range(ctx.scaled(0.5)):
        x, y = alg.sample(rng).coords, alg.sample(rng).coords
        if alg.mul_raw(x, alg.mul_raw(x, y)) != alg.mul_raw(alg.mul_raw(x, x), y):
            _fail(f"left alternativity fails: x={x} y={y}")
        if alg.mul_raw(alg.mul_raw(y, x), x) != alg.mul_raw(y, alg.mul_raw(x, x)):
            _fail(f"right alternativity fails: x={x} y={y}")
    b = [v.coords for v in alg.basis()]
    witness = any(
        alg.mul_raw(alg.mul_raw(b[i], b[j]), b[k]) != alg.mul_raw(b[i], alg.mul_raw(b[j], b[k]))
        for i, j, k in ((1, 5, 6), (1, 4, 2), (2, 5, 1), (1, 2, 4))
    )
    if not witness:
        _fail("no associativity-failure witness found among probe triples")


def check_conj_antihom(ctx):
    for alg in _oct_algebras(ctx):
        conj = alg.linmap_of(alg.conj_raw)
        if not conj.order_divides_two():
            _fail("conj is not involutive")
        if not is_automorphism(conj, alg.table, alg.unit_coords, target=alg.table.opposite()):
            _fail(f"conj(xy) != conj(y)conj(x) in {alg.basis_tag}")


def check_gram_nondegenerate(ctx):
    for alg in _oct_algebras(ctx):
        if alg.gram_rank() != alg.dim:
            _fail(f"degenerate bilinear form on {alg.basis_tag}")


COMPOSITION_CHECKS = (
    ("unit law e.x = x.e = x", check_unit_law),
    ("composition law q(xy) = q(x)q(y)", check_composition_law),
    ("alternativity at dim 8, with a non-associative witness", check_alternativity),
    ("conjugation is an involutive anti-homomorphism", check_conj_antihom),
    ("bilinear-form Gram matrices have full rank", check_gram_nondegenerate),
)


# -- albert suite ----------------------------------------------------------------

def _albert_models(ctx):
    yield ctx.cat.J
    yield ctx.cat.Jt


def check_jordan_unit_comm(ctx):
    for alg in _albert_models(ctx):
        if not _unit_law_holds(alg):
            _fail("unit law fails")
        if not alg.table.commutative:
            _fail("commutativity fails")


def check_sharp_axioms(ctx):
    rng = ctx.rng("alb-sharp")
    for alg in _albert_models(ctx):
        f = alg.field
        e = alg.unit_coords
        want = alg.linmap_of(
            lambda x: (alg.unit().scale(alg.tr_raw(x)) - alg.elem(alg, x)).coords)
        if alg.linmap_of(lambda x: alg.cross_raw(e, x)) != want:
            _fail(f"1 # x != Tr(x) 1 - x: {alg.basis_tag}")
        for _ in range(ctx.scaled(0.5)):
            x, y = alg.sample(rng, 3).coords, alg.sample(rng, 3).coords
            xs = alg.sharp_raw(x)
            if alg.trform_raw(xs, y) != alg.norm_derivative_raw(x, y):
                _fail(f"Tr(x#, y) != dN(x; y): {alg.basis_tag}")
            n = alg.norm_raw(x)
            if alg.sharp_raw(xs) != tuple(f.mul(n, v) for v in x):
                _fail(f"(x#)# != N(x) x: {alg.basis_tag}")
        if alg.norm_raw(e) != f.one():
            _fail("N(1) != 1")


def check_uop_coherence(ctx):
    rng = ctx.rng("alb-uop")
    for alg in _albert_models(ctx):
        f = alg.field
        for _ in range(ctx.scaled(0.05, minimum=3)):
            x = alg.sample(rng).coords
            if alg.uop_matrix(x) != alg.uop_matrix_sharp(x):
                _fail("the two U-operator formulas disagree")
        for _ in range(ctx.scaled(0.5)):
            x, y = alg.sample(rng).coords, alg.sample(rng).coords
            nx = alg.norm_raw(x)
            if alg.norm_raw(alg.uapply_raw(x, y)) != f.mul(f.mul(nx, nx), alg.norm_raw(y)):
                _fail("N(U_x y) != N(x)^2 N(y)")


def check_gram_rank_27(ctx):
    for alg in _albert_models(ctx):
        if linalg.rank(alg.gram, alg.field) != 27:
            _fail(f"trace-form Gram rank != 27 on {alg.basis_tag}")


def _her_displayed_norm(alg, x):
    """N = x1 x2 x3 - x1 q(a) - x2 q(b) - x3 q(c) + <ab, conj(c)> on
    Her3(C, gamma = id)."""
    f, C = alg.field, alg.octonions
    a, b, c = x[3:11], x[11:19], x[19:27]
    n = f.mul(f.mul(x[0], x[1]), x[2])
    n = f.sub(n, f.mul(x[0], C.qnorm_raw(a)))
    n = f.sub(n, f.mul(x[1], C.qnorm_raw(b)))
    n = f.sub(n, f.mul(x[2], C.qnorm_raw(c)))
    return f.add(n, C.bilin_raw(C.mul_raw(a, b), C.conj_raw(c)))


def _tits_displayed_norm(alg, x):
    """N = det a0 + varsigma det a1 + varsigma^-1 det a2 - tr(a0 a1 a2) on
    the first Tits construction."""
    f, vs = alg.field, alg.varsigma
    a0, a1, a2 = (mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3))
    n = f.add(mat3_det(f, a0), f.mul(vs, mat3_det(f, a1)))
    n = f.add(n, f.mul(f.inv(vs), mat3_det(f, a2)))
    return f.sub(n, mat3_tr(f, linalg.mat_mul(linalg.mat_mul(a0, a1, f), a2, f)))


def check_closed_norm(ctx):
    """The norm and the intrinsic norm against the paper's displayed formulas,
    the Hermitian one on J and the Tits one on Jt: at the four probe points
    (x_i = 1 with e in the matching block, and a = b = c = e) and at samples."""
    alg, jt = ctx.cat.J, ctx.cat.Jt
    f = alg.field
    one, zero = f.one(), f.zero()
    e, z = alg.octonions.unit_coords, (zero,) * 8
    points = [(one, zero, zero) + e + z + z, (zero, one, zero) + z + e + z,
              (zero, zero, one) + z + z + e, (zero, zero, zero) + e + e + e]
    rng = ctx.rng("alb-norm")
    points += [alg.sample(rng, 3).coords for _ in range(ctx.scaled(0.3))]
    for coords in points:
        for model, displayed in ((alg, _her_displayed_norm), (jt, _tits_displayed_norm)):
            expect = displayed(model, coords)
            if model.norm_raw(coords) != expect or model.norm_intrinsic_raw(coords) != expect:
                _fail(f"norm disagrees with the displayed formula at "
                      f"{model.element(coords).to_json()}")


def check_isotope_laws(ctx):
    rng = ctx.rng("alb-iso")
    alg = ctx.cat.J
    f = alg.field
    two = f.from_int(2)
    for _ in range(ctx.scaled(0.05, minimum=3)):
        u = alg.sample_invertible(rng)
        uinv = alg.jinv_raw(u.coords)
        x = alg.sample(rng)
        if alg.triple_raw(x.coords, u.coords, uinv) != x.coords:
            _fail("isotope unit law x<u>u^-1 != x")
        # isotope U-operator at a sample point: (2 L'^2 - L'_{x<y>x}) z = U_x U_y z
        y = alg.sample_invertible(rng)
        z = alg.sample(rng)
        lz = alg.triple_raw(x.coords, y.coords, z.coords)
        llz = alg.triple_raw(x.coords, y.coords, lz)
        xsq = alg.triple_raw(x.coords, y.coords, x.coords)
        lsq_z = alg.triple_raw(xsq, y.coords, z.coords)
        lhs = tuple(f.sub(f.mul(two, llz[k]), lsq_z[k]) for k in range(27))
        if lhs != alg.uapply_raw(x.coords, alg.uapply_raw(y.coords, z.coords)):
            _fail("U_x^<y> != U_x U_y on a sample")


def check_similarities(ctx):
    rng = ctx.rng("alb-sim")
    alg = ctx.cat.J
    f = alg.field
    for _ in range(ctx.scaled(0.3)):
        x = alg.sample(rng)
        lam = f.sample_nonzero(rng, 5)
        if alg.norm_raw(alg.phi_lambda_raw(lam, x.coords)) != f.mul(lam, alg.norm_raw(x.coords)):
            _fail("phi_lambda multiplier law fails")
        g = f.sample_nonzero(rng, 5)
        if alg.norm_raw(alg.nu_g_raw(g, x.coords)) != alg.norm_raw(x.coords):
            _fail("nu_g is not norm invariant")
    u = alg.diag(1, 0, 0)
    g = f.from_int(3)
    g4 = f.mul(f.mul(g, g), f.mul(g, g))
    if alg.nu_g_raw(g, u.coords) != tuple(f.mul(f.inv(g4), v) for v in u.coords):
        _fail("nu_g(u) != g^-4 u")


def check_beth(ctx):
    alg = ctx.cat.J
    basis = [b.coords for b in beth_basis(alg)]
    if len(basis) != 11 or linalg.rank(tuple(basis), alg.field) != 11:
        _fail("beth basis is not 11 independent vectors")
    span, ints = linalg.int_span(basis, alg.dim, alg.field)
    if not span.closed(alg.table, ints):
        _fail("beth is not closed under the Jordan product")


def check_elinvj(ctx):
    rng = ctx.rng("alb-elinvj")
    alg = ctx.cat.J
    for phi in (ctx.cat.realize("s", "J"), ctx.cat.realize("t", "J")):
        for _ in range(ctx.scaled(0.1)):
            x = alg.sample(rng).coords
            lhs = phi.compose(alg.uop_map(x))
            rhs = alg.uop_map(phi.apply(x)).compose(phi)
            if lhs != rhs:
                _fail("phi U_x != U_{phi x} phi")


ALBERT_CHECKS = (
    ("Jordan unit and commutativity", check_jordan_unit_comm),
    ("sharped cubic form axioms and (x#)# = N(x)x", check_sharp_axioms),
    ("U-operator formulas agree; N(U_x y) = N(x)^2 N(y)", check_uop_coherence),
    ("trace form Gram rank 27", check_gram_rank_27),
    ("gamma=id cubic norm matches the displayed formula", check_closed_norm),
    ("isotope unit and U-operator shift laws", check_isotope_laws),
    ("norm similarities phi_lambda and nu_g", check_similarities),
    ("beth basis: 11-dimensional and product-closed", check_beth),
    ("automorphisms intertwine U-operators", check_elinvj),
)


# -- brown suite --------------------------------------------------------------------

def check_brown_unit_inv(ctx):
    for b in (ctx.cat.B, BrownAlgebra(ctx.cat.J, zeta=2)):
        if not _unit_law_holds(b):
            _fail("Brown unit law fails")
        if not is_automorphism(b.binv_map(), b.table, b.unit_coords, target=b.table.opposite()):
            _fail("binv is not an anti-homomorphism")


def check_brown_skew(ctx):
    for b in (ctx.cat.B, BrownAlgebra(ctx.cat.J, zeta=3)):
        skew = b.skew_basis()
        if len(skew) != 1:
            _fail(f"skew space has dimension {len(skew)}, not 1")
        if not linalg.same_span(skew, [b.s0().coords], b.field):
            _fail("skew space is not spanned by s0")
        if b.type_of() != "Type1":
            _fail("split construction must be Type1")


def check_brown_lifts(ctx):
    rng = ctx.rng("br-lift")
    b = ctx.cat.B
    x = b.jalg.sample_norm_one(rng)
    ux = b.jalg.uop_map(x.coords)
    maps = [ctx.cat.realize("t", "B"), b.lift_inv(ux), ctx.cat.realize("varpi", "B")]
    bi = b.binv_map()
    for m in maps:
        if not is_aut_member(m, b):
            _fail("lifted map does not preserve the Brown product")
        if m.compose(bi) != bi.compose(m):
            _fail("lifted map does not commute with the involution")


def check_varpi_dagger(ctx):
    rng = ctx.rng("br-varpi")
    b = ctx.cat.B
    w = ctx.cat.realize("varpi", "B")
    if not w.order_divides_two():
        _fail("varpi is not of order 2")
    # row i of varpi holds one 1, at column perm[i]; varpi is an involution,
    # so w L w is L with its rows and columns reindexed by perm, which keeps
    # the integer form of L in lowest terms
    d, m = w._ints
    perm = [j for row in m for j, v in enumerate(row) if v]
    if d != 1 or len(perm) != b.dim or any(m[i][j] != 1 for i, j in enumerate(perm)):
        _fail("varpi is not a coordinate permutation")
    for _ in range(ctx.scaled(0.1)):
        x = b.jalg.sample_norm_one(rng)
        ux = b.jalg.uop_map(x.coords)
        lift = b.lift_inv(ux)
        d, m = lift._ints
        lhs = LinMap.of_ints(d, [[m[i][j] for j in perm] for i in perm],
                             b.field, lift.carrier, lift.basis_tag)
        if lhs != b.lift_inv(dagger(ux, b.jalg)):
            _fail("varpi conjugation does not realize dagger")


def check_commuting_pairs(ctx):
    b = ctx.cat.B
    ident = b.jalg.linmap(linalg.identity(b.jalg.dim, b.field))
    that = ctx.cat.realize("t", "J")
    for pair in ((ident, ident), (that, that)):
        basis = b.commuting_pair_subalgebra(*pair)
        if len(basis) != 28:
            _fail("commuting-pair subalgebra is not 28-dimensional")


BROWN_CHECKS = (
    ("Brown unit laws and involution anti-homomorphism", check_brown_unit_inv),
    ("skew space is the line k s0; split type is 1", check_brown_skew),
    ("lifts preserve product and commute with the involution", check_brown_lifts),
    ("varpi has order 2 and conjugation realizes dagger", check_varpi_dagger),
    ("commuting-pair Brown subalgebras close at dimension 28", check_commuting_pairs),
)


# -- involutions suite -----------------------------------------------------------------

def check_catalog_orders(ctx):
    for space, names in (("J", ("s", "t", "t*")), ("B", ("s", "t", "varpi", "s.varpi", "t.varpi"))):
        for name in names:
            m = ctx.cat.realize(name, space)
            if m.is_identity() or not m.order_divides_two():
                _fail(f"{name} does not have order exactly 2 on {space}")


def check_fixed_dims(ctx):
    cat = ctx.cat
    expected_j = {"s": 11, "t": 15}
    for name, dim in expected_j.items():
        rep = fixed_subalgebra(cat.realize(name, "J"), cat.J)
        if rep.dimension != dim or not rep.product_closed:
            _fail(f"J^{name}: got dim {rep.dimension}, closed={rep.product_closed}")
    expected_b = {"s": 24, "t": 32, "varpi": 28, "t.varpi": 28, "s.varpi": 28}
    for name, dim in expected_b.items():
        rep = fixed_subalgebra(cat.realize(name, "B"), cat.B)
        if rep.dimension != dim or not rep.product_closed or not rep.involution_closed:
            _fail(f"B^{name}: got dim {rep.dimension}")


def check_beth_is_fix_s(ctx):
    cat = ctx.cat
    fix = cat.realize("s", "J").fixed_space()
    beth = [x.coords for x in beth_basis(cat.J)]
    if not linalg.same_span(list(fix), beth, ctx.field):
        _fail("fix(s) differs from the beth span")


def check_uv_bridge(ctx):
    cat = ctx.cat
    uv = make_uv_bridge(cat.J)
    s = cat.realize("s", "J")
    if uv.compose(uv) != s:
        _fail("U_V^2 != s")
    if dagger(uv, cat.J) != uv.inverse_map():
        _fail("dagger(U_V) != U_V^-1")
    b = cat.B
    lifted = b.lift_inv(uv)
    fix_w = fixed_subalgebra(cat.realize("varpi", "B"), b).basis
    fix_sw = fixed_subalgebra(cat.realize("s.varpi", "B"), b).basis
    image = [lifted.apply(v) for v in fix_w]
    if not linalg.same_span(image, list(fix_sw), ctx.field):
        _fail("lift(U_V) does not carry B^varpi onto B^(s.varpi)")


def check_theta_torus_inversion(ctx):
    rng = ctx.rng("inv-theta")
    jt = ctx.cat.Jt
    th = make_theta_tits(jt)
    f = ctx.field
    if not th.order_divides_two():
        _fail("theta does not square to the identity")
    for _ in range(ctx.scaled(0.1)):
        params = tuple(f.sample_nonzero(rng) for _ in range(6))
        t = make_torus_element(jt, params, "E6")
        if th.compose(dagger(t, jt)).compose(th) != t.inverse_map():
            _fail(f"torus inversion fails at parameters {params}")


def check_dagger_laws(ctx):
    rng = ctx.rng("inv-dagger")
    cat = ctx.cat
    alg = cat.J
    for _ in range(ctx.scaled(0.1)):
        x = alg.sample_norm_one(rng)
        ux = alg.uop_map(x.coords)
        if dagger(ux, alg) != alg.uop_map(alg.jinv_raw(x.coords)):
            _fail("dagger(U_x) != U_(x^-1)")
    that = cat.realize("t", "J")
    if dagger(that, alg) != that:
        _fail("dagger does not fix the automorphism t-hat")


def check_grading(ctx):
    cat = ctx.cat
    plus, minus = grade_decompose(cat.realize("s", "J"), cat.J)
    if (len(plus), len(minus)) != (11, 16):
        _fail(f"grading of s is ({len(plus)}, {len(minus)}), not (11, 16)")


def check_transport(ctx):
    rng = ctx.rng("inv-transport")
    cat = ctx.cat
    for t in (cat.realize("s", "J"), cat.realize("t", "J")):
        for _ in range(ctx.scaled(0.03, minimum=2)):
            g = cat.random_j_automorphism(rng)
            t2 = conjugate_involution(g, t)
            if not verify_conjugacy_transport(g, t, t2):
                _fail("conjugacy transport failed")


INVOLUTION_CHECKS = (
    ("catalog maps have order exactly 2", check_catalog_orders),
    ("fixed-subalgebra dimensions match the catalog", check_fixed_dims),
    ("fix(s) equals the beth subalgebra", check_beth_is_fix_s),
    ("U_V bridge: square, dagger, span transport", check_uv_bridge),
    ("theta and dagger invert the Tits torus", check_theta_torus_inversion),
    ("dagger laws on U-operators and automorphisms", check_dagger_laws),
    ("grading decomposition of s", check_grading),
    ("conjugacy transport of fixed subalgebras", check_transport),
)


SUITES = {
    "composition": COMPOSITION_CHECKS,
    "albert": ALBERT_CHECKS,
    "brown": BROWN_CHECKS,
    "involutions": INVOLUTION_CHECKS,
}


def run_suite(name: str, field: FieldSpec, seed: int, samples: int):
    """Run one suite, or 'all' of them in order on one shared context (one
    Catalog); returns a list of CheckResult."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    ctx = Ctx(field, seed, samples)
    results = []
    for suite in SUITES if name == "all" else (name,):
        for label, fn in SUITES[suite]:
            try:
                fn(ctx)
            except CheckFailure as exc:
                results.append(CheckResult(suite, label, False, str(exc)))
            except AlgebraError as exc:
                results.append(CheckResult(suite, label, False, f"{type(exc).__name__}: {exc}"))
            else:
                results.append(CheckResult(suite, label, True))
    return results
