import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from brownalg import albert, involutions, linalg, linmaps, verify
from brownalg.albert import AlbertAlgebra, hermitian, split_albert, tits
from brownalg.brown import BrownAlgebra
from brownalg.cayley import CDAlgebra
from brownalg.errors import (
    AlgebraMismatch,
    CarrierMismatch,
    InternalError,
    MixedFields,
    NonArithmeticField,
    NotNormPreserving,
    SingularGram,
)
from brownalg.fields import FieldSpec, Fp, Q
from brownalg.involutions import (
    Catalog,
    fixed_subalgebra,
    isotope_automorphism_check,
    make_canonical_t,
    make_torus_element,
    make_uv_bridge,
)
from brownalg.kernels import MulTable
from brownalg.linmaps import (
    ALBERT,
    LinMap,
    dagger,
    is_aut_member,
    is_inv_member,
)


def _phi_lambda_map(alg, lam):
    f = alg.field
    cols = []
    for b in alg.basis():
        cols.append(alg.phi_lambda_raw(f.from_int(lam), b.coords))
    n = len(cols)
    return LinMap(
        tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)),
        f, ALBERT, alg.basis_tag,
    )


def _uop_map(alg, x):
    return LinMap(alg.uop_matrix(x.coords), alg.field, ALBERT, alg.basis_tag)


def test_identity_is_inv_and_aut():
    for alg in (split_albert(Q()), split_albert(Fp(7))):
        ident = alg.linmap(linalg.identity(27, alg.field))
        assert is_inv_member(ident, alg)
        assert is_aut_member(ident, alg)


def test_phi_lambda_multiplier_two_not_inv():
    for alg in (split_albert(Q()), split_albert(Fp(7))):
        phi2 = _phi_lambda_map(alg, 2)
        assert not is_inv_member(phi2, alg)
        assert not is_aut_member(phi2, alg)


def test_unit_norm_u_operator_is_inv():
    rng = random.Random(0)
    for alg in (split_albert(Q()), split_albert(Fp(7))):
        x = alg.sample_norm_one(rng, 2)
        u = _uop_map(alg, x)
        assert is_inv_member(u, alg)


def test_diag_sign_u_operator_is_aut():
    alg = split_albert(Fp(7))
    d = alg.diag(1, 1, -1)
    assert is_aut_member(_uop_map(alg, d), alg)


def test_is_inv_member_certificate_over_q_rejects_subtle_scaling():
    # nu_g-like map with one exponent perturbed: close to norm-preserving but not
    alg = split_albert(Q())
    f = alg.field
    cols = []
    for b in alg.basis():
        v = list(alg.nu_g_raw(f.from_int(2), b.coords))
        cols.append(tuple(v))
    m = [list(r) for r in zip(*cols)]
    m[0][0] = f.mul(m[0][0], f.from_int(2))  # breaks the g^-4 weight on xi1
    bad = LinMap(tuple(tuple(r) for r in m), f, ALBERT, alg.basis_tag)
    assert not is_inv_member(bad, alg)


def test_nu_g_is_inv_member():
    alg = split_albert(Q())
    f = alg.field
    cols = [alg.nu_g_raw(f.from_int(3), b.coords) for b in alg.basis()]
    m = LinMap(tuple(tuple(cols[j][i] for j in range(27)) for i in range(27)),
               f, ALBERT, alg.basis_tag)
    assert is_inv_member(m, alg)
    assert not is_aut_member(m, alg)


def test_dagger_of_unit_norm_uop_is_inverse():
    rng = random.Random(1)
    for alg in (split_albert(Fp(7)), split_albert(Q())):
        for _ in range(5):
            x = alg.sample_norm_one(rng, 2)
            u = _uop_map(alg, x)
            dag = dagger(u, alg)
            xinv = alg.jinv_raw(x.coords)
            assert dag.matrix == alg.uop_matrix(xinv)
            assert u.compose(dag).is_identity()


def test_dagger_involutive_and_fixes_automorphisms():
    rng = random.Random(2)
    alg = split_albert(Fp(7))
    x = alg.sample_norm_one(rng)
    u = _uop_map(alg, x)
    assert dagger(dagger(u, alg), alg).matrix == u.matrix
    d = alg.diag(1, -1, -1)
    s = _uop_map(alg, d)
    assert dagger(s, alg).matrix == s.matrix


def test_dagger_antihomomorphism_on_uops():
    rng = random.Random(3)
    alg = split_albert(Fp(11))
    x = alg.sample_norm_one(rng)
    y = alg.sample_norm_one(rng)
    ux, uy = _uop_map(alg, x), _uop_map(alg, y)
    lhs = dagger(ux.compose(uy), alg)
    rhs = dagger(ux, alg).compose(dagger(uy, alg))
    assert lhs.matrix == rhs.matrix


def test_dagger_rejects_similarity():
    alg = split_albert(Fp(7))
    with pytest.raises(NotNormPreserving):
        dagger(_phi_lambda_map(alg, 2), alg)


def test_carrier_mismatch():
    a7 = split_albert(Fp(7))
    aq = split_albert(Q())
    m = a7.linmap(linalg.identity(27, a7.field))
    with pytest.raises(CarrierMismatch):
        is_inv_member(m, aq)


def test_fixed_space_of_identity():
    alg = split_albert(Fp(7))
    ident = alg.linmap(linalg.identity(27, alg.field))
    assert len(ident.fixed_space()) == 27


def _scalar_map(alg, lam):
    f = alg.field
    return LinMap(tuple(tuple(f.from_int(lam) if i == j else f.zero() for j in range(27))
                        for i in range(27)), f, ALBERT, alg.basis_tag)


def test_scalar_maps_over_f7_certified():
    # N(lam x) = lam^3 N(x): 2^3 = 8 = 1 mod 7, 3^3 = 27 = 6 mod 7
    alg = split_albert(Fp(7))
    assert is_inv_member(_scalar_map(alg, 2), alg)
    assert not is_inv_member(_scalar_map(alg, 3), alg)


def test_unit_norm_u_operator_is_inv_over_61_bit_prime():
    alg = split_albert(Fp(2**61 - 1))
    x = alg.sample_norm_one(random.Random(4))
    assert alg.norm_raw(x.coords) == 1
    assert is_inv_member(_uop_map(alg, x), alg)


# -- the integer certificate against a field-arithmetic reference ------------------

def _certificate_points(f):
    for combo in itertools.combinations_with_replacement(range(27), 3):
        v = [f.zero()] * 27
        for i in combo:
            v[i] = f.add(v[i], f.one())
        yield tuple(v)


def _sampled_points(f, samples, seed):
    rng = random.Random(seed)
    return [tuple(f.sample_raw(rng, 3) for _ in range(27)) for _ in range(samples)]


def _reference_verdict(phi, alg, points):
    """N(phi x) = N(x) at every point, in field arithmetic through norm_raw."""
    return all(alg.norm_raw(phi.apply(x)) == alg.norm_raw(x) for x in points)


def _perturbed(phi):
    f = phi.field
    m = [list(r) for r in phi.matrix]
    m[5][3] = f.add(m[5][3], f.one())
    return LinMap(tuple(tuple(r) for r in m), f, ALBERT, phi.basis_tag)


def _nu_g_map(alg, g):
    f = alg.field
    cols = [alg.nu_g_raw(f.from_int(g), b.coords) for b in alg.basis()]
    return LinMap(tuple(tuple(cols[j][i] for j in range(27)) for i in range(27)),
                  f, ALBERT, alg.basis_tag)


def test_integer_guards_match_field_reference():
    """Members and one-entry-perturbed non-members: `is_inv_member` agrees
    with the norm in field arithmetic at seeded points on every case; the
    certificate reference (3654 norm_raw pairs) runs on the cheap cases
    only."""
    rng = random.Random(6)
    cases = []  # (algebra, map, certify)
    for alg, certify in ((split_albert(Q()), False), (split_albert(Fp(7)), True)):
        cases.append((alg, _uop_map(alg, alg.sample_norm_one(rng, 2)), certify))
    alg = split_albert(Q())
    cases.append((alg, _nu_g_map(alg, 3), True))
    for alg, phi, certify in cases:
        f = alg.field
        for member, psi in ((True, phi), (False, _perturbed(phi))):
            for samples, seed in ((40, 1), (30, 5)):
                points = _sampled_points(f, samples, seed)
                assert _reference_verdict(psi, alg, points) == member
            if certify:
                assert _reference_verdict(psi, alg, _certificate_points(f)) == member
            assert is_inv_member(psi, alg) == member


def test_norm_form_fitted_on_first_norm_check(monkeypatch):
    """Neither the Tits models nor `is_inv_member` fit a norm form; the
    first norm evaluation fits it, once."""
    fits = []
    fit = AlbertAlgebra._fit_norm_form
    monkeypatch.setattr(AlbertAlgebra, "_fit_norm_form",
                        lambda self: fits.append(self) or fit(self))
    cat = Catalog(Q())
    cat.Jt, cat.Bt  # noqa: B018  (the lazily built Tits models)
    assert fits == []
    ident = cat.J.linmap(linalg.identity(27, cat.J.field))
    assert is_inv_member(ident, cat.J)
    assert fits == []
    x = cat.J.unit_coords
    assert cat.J.norm_raw(x) == cat.J.norm_raw(ident.apply(x)) == cat.field.one()
    assert fits == [cat.J]


# -- the polar-tensor certificate against the point certificate ---------------

def _ref_point_certificate(phi, alg):
    """N(phi x) = N(x) at the 3654 points e_a + e_b + e_c (a <= b <= c), in
    integers against the norm form: the certificate `is_inv_member` used
    before it compared polar-tensor coefficients."""
    f = alg.field
    terms = alg.norm_form().terms
    p = f.p if f.kind == "Fp" else 0
    if p:
        d, m = 1, phi.matrix
    else:
        d = math.lcm(*(v.denominator for row in phi.matrix for v in row))
        m = tuple(tuple(v.numerator * (d // v.denominator) for v in row) for row in phi.matrix)

    def cubic(v):
        return sum(c * v[i] * v[j] * v[k] for i, j, k, c in terms)

    cols = tuple(zip(*m))
    for a, b, c in itertools.combinations_with_replacement(range(27), 3):
        v = [0] * 27
        v[a] += 1
        v[b] += 1
        v[c] += 1
        y = [s + t + u for s, t, u in zip(cols[a], cols[b], cols[c])]
        diff = cubic(y) - d ** 3 * cubic(v)
        if diff % p if p else diff:
            return False
    return True


def _tits_norm_one(alg, rng):
    """(a0, a1, 0) with a0 unitriangular-by-unitriangular (det 1) and a1 of
    rank at most 2: N = det a0 = 1 on the first Tits construction."""
    f = alg.field
    r = [[f.sample_raw(rng, 3) for _ in range(3)] for _ in range(3)]
    one, zero = f.one(), f.zero()
    lower = ((one, zero, zero), (r[0][0], one, zero), (r[0][1], r[0][2], one))
    upper = ((one, r[1][0], r[1][1]), (zero, one, r[1][2]), (zero, zero, one))
    a0 = linalg.mat_mul(lower, upper, f)
    a1 = (tuple(r[2]), tuple(r[1]), tuple(f.add(u, v) for u, v in zip(r[2], r[1])))
    x = alg.tits_element(a0, a1, ((zero,) * 3,) * 3)
    assert alg.norm_raw(x.coords) == one
    return x


def _with_entry(phi, i, j, value):
    m = [list(r) for r in phi.matrix]
    m[i][j] = value
    return LinMap(tuple(tuple(r) for r in m), phi.field, ALBERT, phi.basis_tag)


def _trace_check_witness(alg):
    """diag(2^v) for v = e_5 - e_4 on the split model: 1/2 at e_4, 2 at e_5
    and 1 elsewhere.  The 27 pairs `dagger` picks and the trace form, as
    exponent equations for diag(2^v), have rank 13, against 21 for the whole
    cross table, and v lies between the two kernels: with the dagger read
    off the picked pairs the map keeps the whole trace-form identity, so it
    passes the multiplier check of `is_inv_member`.  The monomials of the
    norm scale by 1/2, 1 or 2, some by 2, so it moves the norm on every
    field (2 != 1)."""
    f = alg.field
    diag = [f.one()] * 27
    diag[4], diag[5] = f.inv(f.from_int(2)), f.from_int(2)
    return alg.linmap(tuple(tuple(v if i == j else f.zero() for j in range(27))
                            for i, v in enumerate(diag)))


FIELDS = {"Q": Q(), "Fp:7": Fp(7), "Fp:2^61-1": Fp(2**61 - 1)}


@pytest.mark.parametrize("name", list(FIELDS))
def test_inv_certificate_matches_point_reference(name, monkeypatch):
    f = FIELDS[name]
    # 5/7 has no residue mod 7, so the third kappa is 5/3 over F_7
    kappas = ("-1/2", "3", "5/3" if f == Fp(7) else "5/7")
    octonions = CDAlgebra(f, kappas=tuple(f.parse_scalar(k) for k in kappas))
    gamma = tuple(f.parse_scalar(g) for g in ("1", "2/3", "-5"))
    rng = random.Random(8)
    cases = []  # (algebra, map, member)
    for alg in (split_albert(f), hermitian(octonions, gamma=gamma)):
        cases.append((alg, _uop_map(alg, alg.sample_norm_one(rng, 2)), True))
    jt = tits(f, f.parse_scalar("3/2"))
    cases.append((jt, _uop_map(jt, _tits_norm_one(jt, rng)), True))
    cat = Catalog(f)
    for phi in (cat.realize("s", "J"), cat.realize("t", "J"), cat.realize("t*", "J")):
        cases.append((cat.J, phi, True))
    alg, ux = cases[0][:2]
    t = cat.realize("t", "J")
    i, j = next((i, j) for i in range(27) for j in range(27) if ux.matrix[i][j])
    cases.append((alg, _with_entry(ux, i, j, f.add(ux.matrix[i][j], f.one())), False))
    i, j = next((i, j) for i in range(27) for j in range(27) if not t.matrix[i][j])
    cases.append((cat.J, _with_entry(t, i, j, f.one()), False))
    # the multiplier check passes it; only the product law fails
    witness = _trace_check_witness(alg)
    calls = _spy_certificate(monkeypatch)
    assert not is_inv_member(witness, alg)
    assert calls == [("_image_rows", witness), ("_rows_agree",)]
    cases.append((alg, witness, False))
    if f == Fp(7):
        cases.append((alg, _scalar_map(alg, 2), True))  # 2^3 = 1 mod 7
    if f == Q():
        cases.append((alg, _scalar_map(alg, 3), False))
    for alg, phi, member in cases:
        assert _ref_point_certificate(phi, alg) == member
    # the certificate never evaluates the norm at a point
    monkeypatch.setattr(albert, "_cubic", _raise)
    for alg, phi, member in cases:
        assert is_inv_member(phi, alg) == member


def _raise(*args):
    raise AssertionError("the norm form was evaluated at a point")


@pytest.mark.parametrize("name", list(FIELDS))
def test_inv_certificate_at_the_slot_bounds(name, monkeypatch):
    """The packed certificate against the point reference where its slots are
    fullest: over F_p the all-(p - 1) map puts sum |T| (p - 1)^3 in every
    slot; over Q the integer form of U_x for x = diag(a, b, 1/(ab)), with
    30-digit a and b, has entries far above 2^64, and x has norm 1.  -id
    and the zero map are on every field."""
    f = FIELDS[name]
    alg = split_albert(f)
    cases = [(_scalar_map(alg, -1), False), (_scalar_map(alg, 0), False)]
    if f == Q():
        a, b = 10**29 + 7, 2 * 10**29 + 3
        ux = _uop_map(alg, alg.diag(f.from_int(a), f.from_int(b), f.inv(f.from_int(a * b))))
        assert max(abs(v) for row in ux._ints[1] for v in row) > 2**64
        cases += [(ux, True), (_perturbed(ux), False)]
    else:
        full = LinMap(tuple((f.p - 1,) * 27 for _ in range(27)), f, ALBERT, alg.basis_tag)
        cases.append((full, False))
    for phi, member in cases:
        assert _ref_point_certificate(phi, alg) == member
    monkeypatch.setattr(albert, "_cubic", _raise)
    for phi, member in cases:
        assert is_inv_member(phi, alg) == member


# -- the integer automorphism certificate against field-value references ---------------

def _ref_product(table, field):
    """x.y summed from the table's entries in field values."""
    rows = [[] for _ in range(table.n)]
    for i, j, k, c in table.entries:
        rows[i].append((j, k, c))

    def product(x, y):
        out = [field.zero()] * table.n
        for xi, row in zip(x, rows):
            for j, k, c in row if xi else ():
                if y[j]:
                    out[k] = field.add(out[k], field.mul(c, field.mul(xi, y[j])))
        return tuple(out)
    return product


def _ref_failures(matrix, product, unit, field, commutative=False, target=None):
    """Where the map of `matrix` breaks phi(unit) = unit ("unit") or
    phi(e_i.e_j) = phi(e_i)*phi(e_j) (the pair (i, j)), in field values, with
    * the product `target` on the image side (`product` by default)."""
    target = target or product
    n = len(matrix)
    cols = list(zip(*matrix))

    def apply(v):
        out = [field.zero()] * n
        for x, col in zip(v, cols):
            for r, a in enumerate(col if x else ()):
                if a:
                    out[r] = field.add(out[r], field.mul(a, x))
        return tuple(out)

    basis = [tuple(field.one() if i == j else field.zero() for j in range(n)) for i in range(n)]
    images = [apply(b) for b in basis]
    bad = [] if apply(unit) == tuple(unit) else ["unit"]
    for i in range(n):
        for j in range(i if commutative else 0, n):
            if apply(product(basis[i], basis[j])) != target(images[i], images[j]):
                bad.append((i, j))
    return bad


def _dual_number_table(field):
    """e0 the unit, e1.e1 = (3/2) e2, every other product of e1, e2 zero."""
    c = field.parse_scalar("3/2")
    one = field.one()
    return MulTable(3, [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (0, 2, 2, one),
                        (2, 0, 2, one), (1, 1, 2, c)])


def _without(table, key):
    """The commutative `table` without its entry at `key`, whose mirror
    stays: a non-commutative variant, on which the product law checks every
    basis pair, where on the table it checks the pairs i <= j."""
    variant = MulTable(table.n, [e for e in table.entries if e[:3] != key])
    assert table.commutative and not variant.commutative
    return variant


@pytest.mark.parametrize("name, a, bad_b", [("Q", "-1/2", "1/3"), ("Fp:7", "3", "5")])
def test_is_automorphism_breaks_on_exactly_one_pair(name, a, bad_b):
    """diag(1, a, b) fixes the unit and is an automorphism of the table iff
    b = a^2; otherwise it breaks only the pair (1, 1).  So it does on the
    variant where e0 is no right unit for e2, where every pair is checked.
    Over Q the map's denominator (6) and the table's (2) both exceed 1."""
    f = FIELDS[name]
    table = _dual_number_table(f)
    unit = (f.one(), f.zero(), f.zero())
    a = f.parse_scalar(a)
    for b, verdict in ((f.mul(a, a), True), (f.parse_scalar(bad_b), False)):
        m = ((f.one(), f.zero(), f.zero()), (f.zero(), a, f.zero()), (f.zero(), f.zero(), b))
        phi = LinMap(m, f, "dual3", "dual3")
        for t in (table, _without(table, (2, 0, 2))):
            bad = _ref_failures(m, _ref_product(t, f), unit, f)
            assert bad == ([] if verdict else [(1, 1)])
            assert linmaps.is_automorphism(phi, t, unit) is verdict
    zero = tuple((f.zero(),) * 3 for _ in range(3))
    assert _ref_failures(zero, _ref_product(table, f), unit, f) == ["unit"]
    assert not linmaps.is_automorphism(LinMap(zero, f, "dual3", "dual3"), table, unit)


def _tail_table(field):
    """F^4 with unit e0, e1.e1 = (3/2) e2 and e3.e3 = (-5/2) e1, every other
    product of e1, e2, e3 zero."""
    one = field.one()
    return MulTable(4, [(0, j, j, one) for j in range(4)] + [(j, 0, j, one) for j in range(1, 4)]
                    + [(1, 1, 2, field.parse_scalar("3/2")), (3, 3, 1, field.parse_scalar("-5/2"))])


@pytest.mark.parametrize("name", list(FIELDS))
def test_is_automorphism_breaks_on_exactly_the_last_pair(name):
    """diag(1, a^2, a^4, b) fixes the unit and is an automorphism of the table
    iff b^2 = a^2; with a = -1/2 and b = 1/3 it breaks only the pair (3, 3),
    the last slot of the last row: on the table, which is commutative, the
    suffix packings check it alone, in the row they make first, and on the
    variant where e0 is no right unit for e3 the full rows check it last.
    Over F_p the entries are large residues, so the slots fill up."""
    f = FIELDS[name]
    table = _tail_table(f)
    unit = (f.one(),) + (f.zero(),) * 3
    a = f.parse_scalar("-1/2")
    a2 = f.mul(a, a)
    for b, bad in ((a, []), (f.neg(a), []), (f.parse_scalar("1/3"), [(3, 3)])):
        diag = (f.one(), a2, f.mul(a2, a2), b)
        m = tuple(tuple(v if i == j else f.zero() for j in range(4)) for i, v in enumerate(diag))
        phi = LinMap(m, f, "tail4", "tail4")
        for t in (table, _without(table, (3, 0, 3))):
            assert _ref_failures(m, _ref_product(t, f), unit, f) == bad
            assert linmaps.is_automorphism(phi, t, unit) is (not bad)


def test_product_law_slots_hold_its_left_side():
    """The product law's slots hold n S a max|P| for its left side as well
    as S' top^2 for its image side (`linmaps._law_packing`).  Over F_31 on
    F^38 with e_0.e_0 = 30 (e_0 + ... + e_37), S = 30, the map with row 0
    e_0 and row c the residue 30 everywhere but 7 at column c fixes the
    all-ones vector, so it keeps the product: the law holds mod 31 with
    left side 30 * 1117 and image side 30 at every coordinate c > 0.  Their
    difference, 33,480, needs 4-byte slots, which S max|M|^2 = 27,000
    alone would not take; the 2-byte slots of that bound refuse it.  The
    same holds on the non-commutative variant with x_0 y added to x.y
    (e_0 also a left unit; phi keeps it, as phi(x)_0 = x_0), where S = 31
    and every pair is checked."""
    f, n = Fp(31), 38
    table = MulTable(n, [(0, 0, k, 30) for k in range(n)])
    variant = MulTable(n, table.entries + tuple((0, j, j, 1) for j in range(n)))
    assert table.commutative and not variant.commutative
    m = (tuple(int(j == 0) for j in range(n)),) + tuple(
        tuple(7 if j == c else 30 for j in range(n)) for c in range(1, n))
    ones = (1,) * n
    assert 30 * (sum(m[1]) - 1) >= 2**15 > variant.int_sum() * 30**2
    phi = LinMap(m, f, "ones38", "ones38")
    for t in (table, variant):
        assert _ref_failures(m, _ref_product(t, f), ones, f) == []
        assert linmaps.is_automorphism(phi, t, ones) is True


def test_product_law_slots_hold_the_map_denominator():
    """Over Q the left side of the law carries the denominator d of the map
    (a = d in `linmaps._law_packing`): on F^2 with e_0.e_0 = -(e_0 + e_1)
    and every other product of basis vectors -e_1 (S = 4), the map
    (1 / (2^32 + 1)) [[1, 0], [0, 0]] keeps no product, yet each row of its
    packed differences, d M mul_ints(e_i, e_l) - mul_ints(M e_i, M e_l), is
    0 as an int in the 2-byte slots that n S max|M| + S max|M|^2 = 12 alone
    would take: row 1 is 0, and row 0 holds 1 - d at slot 0 and 1 two slots
    up, 2^32.  So it is on the table, which is commutative, and on the
    variant with e_1.e_0 = 0, where every pair is checked."""
    f = Q()
    table = MulTable(2, [(0, 0, 0, -1), (0, 0, 1, -1), (0, 1, 1, -1), (1, 0, 1, -1), (1, 1, 1, -1)])
    m = ((Fraction(1, 2**32 + 1), f.zero()), (f.zero(), f.zero()))
    zero = (f.zero(),) * 2
    phi = LinMap(m, f, "sum2", "sum2")
    assert phi._ints == (2**32 + 1, ((1, 0), (0, 0)))
    for t in (table, _without(table, (1, 0, 1))):
        assert _ref_failures(m, _ref_product(t, f), zero, f) != []
        assert linmaps.is_automorphism(phi, t, zero) is False


def _one_sided_table(field):
    """F^3 with unit e0, e1.e2 = e1 and e2.e2 = e2, and e2.e1 = 0."""
    one = field.one()
    return MulTable(3, [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one), (0, 2, 2, one),
                        (2, 0, 2, one), (1, 2, 1, one), (2, 2, 2, one)])


def test_is_automorphism_checks_both_orders_of_a_non_commutative_table():
    """Over F_7 the map with rows (1, 0, 1), (0, 2, 0), (0, 0, 0) fixes the
    unit and keeps every product e_i.e_j with i <= j of the one-sided
    table, but not e2.e1 = 0: the table is not commutative, so the
    certificate checks that pair too and refuses the map."""
    f = Fp(7)
    table = _one_sided_table(f)
    unit = (1, 0, 0)
    m = ((1, 0, 1), (0, 2, 0), (0, 0, 0))
    assert not table.commutative
    assert _ref_failures(m, _ref_product(table, f), unit, f, commutative=True) == []
    assert _ref_failures(m, _ref_product(table, f), unit, f) == [(2, 1)]
    assert linmaps.is_automorphism(LinMap(m, f, "one3", "one3"), table, unit) is False


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_is_automorphism_refuses_a_target_of_another_denominator(name):
    """A has e1.e1 = (1/2) e0 (D = 2) and B has e1*e1 = 2 e0 (D = 1), and
    phi = diag(1, 1/2) takes the one product to the other.  Over Q the two
    integer denominators differ and the certificate raises AlgebraMismatch
    naming both; over F_7 both are 1, and phi passes."""
    f = FIELDS[name]
    one = f.one()
    table = MulTable(2, [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
                         (1, 1, 0, f.parse_scalar("1/2"))])
    target = MulTable(2, [(0, 0, 0, one), (0, 1, 1, one), (1, 0, 1, one),
                          (1, 1, 0, f.from_int(2))])
    m = ((one, f.zero()), (f.zero(), f.parse_scalar("1/2")))
    phi = LinMap(m, f, "two2", "two2")
    assert _ref_failures(m, _ref_product(table, f), (one, f.zero()), f,
                         target=_ref_product(target, f)) == []
    if f.p:
        assert linmaps.is_automorphism(phi, table, (one, f.zero()), target=target) is True
        return
    with pytest.raises(AlgebraMismatch, match="denominator 1 is not the table's 2"):
        linmaps.is_automorphism(phi, table, (one, f.zero()), target=target)


def test_unit_law_is_judged_entry_by_entry(monkeypatch):
    """The unit law of `is_automorphism` makes no packing: a map that moves
    the unit fails with no `SignedPacking` built, and a map that fixes it
    builds only the packing of the product law."""
    built = []
    holding = linalg.SignedPacking.holding.__func__

    def counting(cls, bound, field):
        built.append(bound)
        return holding(cls, bound, field)

    monkeypatch.setattr(linalg.SignedPacking, "holding", classmethod(counting))
    for name in ("Q", "Fp:7"):
        f = FIELDS[name]
        table = _dual_number_table(f)
        unit = (f.one(), f.zero(), f.zero())
        a = f.parse_scalar("3")
        for corner, verdict in ((f.zero(), True), (f.one(), False)):
            m = ((f.one(), f.zero(), f.zero()), (f.zero(), a, f.zero()),
                 (corner, f.zero(), f.mul(a, a)))
            del built[:]
            assert linmaps.is_automorphism(LinMap(m, f, "dual3", "dual3"), table, unit) is verdict
            assert len(built) == (1 if verdict else 0)


def test_certificates_call_the_product_once_per_vector(monkeypatch):
    """Over Q the closure of the 32-dimensional fixed space of t on B makes
    one `mul_ints` call per basis vector, not one per pair, and
    `is_aut_member` of t on J two per row."""
    cat = Catalog(Q())
    t_b, t_j = cat.realize("t", "B"), cat.realize("t", "J")
    calls = []
    mul_ints = MulTable.mul_ints

    def counting(table, x, y):
        calls.append(1)
        return mul_ints(table, x, y)

    monkeypatch.setattr(MulTable, "mul_ints", counting)
    rep = fixed_subalgebra(t_b, cat.B)
    assert (rep.dimension, rep.product_closed) == (32, True)
    assert len(calls) <= 32
    del calls[:]
    assert is_aut_member(t_j, cat.J)
    assert len(calls) <= 54


def test_is_aut_member_matches_reference_on_non_integral_maps():
    """Over Q the lift of the G2 torus element t:1/2,2 (entries 1/2 and 2)
    is an automorphism of J and a unit-norm U-operator is not; the integer
    certificate agrees with products summed in Fractions."""
    cat = Catalog(Q())
    J = cat.J
    x = J.sample_norm_one(random.Random(3), 2)
    lift = cat.realize("t:1/2,2", "J")
    assert any(v.denominator > 1 for row in lift.matrix for v in row)
    for phi in (lift, _uop_map(J, x)):
        bad = _ref_failures(phi.matrix, _ref_product(J.table, J.field), J.unit_coords,
                            J.field, commutative=True)
        assert is_aut_member(phi, J) is (not bad)
    assert is_aut_member(lift, J)


@pytest.mark.parametrize("level", ["composition", "albert", "brown"])
def test_is_aut_member_certifies_every_algebra_of_the_tower(level):
    """Over F_7 the catalog's t (lifted to J and B) and varpi are
    automorphisms, a lift with one entry changed is not, and a map carrying
    another algebra's basis tag raises CarrierMismatch."""
    cat = Catalog(Fp(7))
    f = cat.field
    algebra, members, other = {
        "composition": (cat.octonions, [make_canonical_t(cat.octonions)],
                        CDAlgebra(f, (1, 1, 1))),
        "albert": (cat.J, [cat.realize("t", "J")], cat.Jt),
        "brown": (cat.B, [cat.realize("t", "B"), cat.B.varpi()], cat.Bt),
    }[level]
    for phi in members:
        assert is_aut_member(phi, algebra)
    lift = members[0]
    perturbed = [list(row) for row in lift.matrix]
    perturbed[-1][-1] = f.add(perturbed[-1][-1], f.one())
    assert not is_aut_member(algebra.linmap(tuple(map(tuple, perturbed))), algebra)
    with pytest.raises(CarrierMismatch):
        is_aut_member(other.linmap(lift.matrix), algebra)


# -- anti-automorphisms: the certificate with the opposite table as target --------------

def _ref_anti_failures(phi, algebra):
    """Where phi(e_i.e_j) = phi(e_j).phi(e_i) or phi(1) = 1 breaks, summed in
    field values: `_ref_failures` with the swapped product on the image side."""
    product = _ref_product(algebra.table, algebra.field)
    return _ref_failures(phi.matrix, product, algebra.unit_coords, algebra.field,
                         target=lambda x, y: product(y, x))


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_opposite_table_keeps_the_integer_scale(name):
    """The opposite of the Brown table over zeta = -2/5 swaps the first two
    indices in entry order and keeps D and `int_sum`; e_i.e_j read off it is
    e_j.e_i.  It is built once, with its integer form: the table's integer
    rows with i and j swapped, the form `int_table` derives from its
    entries."""
    f = FIELDS[name]
    table = BrownAlgebra(Catalog(f).J, f.parse_scalar("-2/5")).table
    opposite = table.opposite()
    assert table.opposite() is opposite
    assert opposite.entries == tuple((j, i, k, c) for i, j, k, c in table.entries)
    swapped = [[] for _ in range(table.n)]
    for i, j, k, c in table.int_entries():
        swapped[j].append((i, k, c))
    assert opposite.int_table() == (table.int_table()[0], swapped)
    assert opposite.int_table() == MulTable(table.n, opposite.entries).int_table()
    assert opposite.int_sum() == table.int_sum()
    e = linalg.identity(table.n, f)
    assert opposite.apply(e[2], e[40], f) == table.apply(e[40], e[2], f)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_anti_automorphism_certificate_matches_the_swapped_reference(name):
    """conj on the three composition algebras of `verify` and binv on B
    with zeta 1, 2 and -2/5 and on the Brown algebra of the Tits model are
    anti-automorphisms; the identity of the octonions and varpi of B are
    not, and neither conj on the octonions nor binv is an automorphism.
    conj on the 2-dimensional algebra, which is commutative, is both."""
    f = FIELDS[name]
    ctx = verify.Ctx(f, 0, 1)
    cat = ctx.cat
    o, B = cat.octonions, cat.B
    anti = [(alg.linmap_of(alg.conj_raw), alg) for alg in verify._oct_algebras(ctx)]
    browns = [BrownAlgebra(cat.J, z) for z in (1, 2, f.parse_scalar("-2/5"))] + [cat.Bt]
    anti += [(b.binv_map(), b) for b in browns]
    cases = [(phi, alg, True) for phi, alg in anti]
    cases += [(o.linmap(linalg.identity(8, f)), o, False), (B.varpi(), B, False)]
    for phi, alg, verdict in cases:
        assert (not _ref_anti_failures(phi, alg)) is verdict
        opposite = alg.table.opposite()
        assert linmaps.is_automorphism(phi, alg.table, alg.unit_coords, target=opposite) is verdict
    for phi, alg in anti:
        bad = _ref_failures(phi.matrix, _ref_product(alg.table, f), alg.unit_coords, f)
        assert (not bad) is (alg.dim == 2)
        assert is_aut_member(phi, alg) is (alg.dim == 2)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_changed_conjugation_fails_where_the_reference_does(name, monkeypatch):
    """conj on the octonions with one entry doubled is no anti-automorphism:
    the reference lists pairs in rows from 1 on, the unit law holds, and
    the certificate, which stops at the first failing row, makes one call
    on the opposite table per row up to the first row the reference lists."""
    f = FIELDS[name]
    o = Catalog(f).octonions
    rows = [list(row) for row in o.linmap_of(o.conj_raw).matrix]
    r, c = next((r, c) for r, row in enumerate(rows) for c, v in enumerate(row)
                if v and not o.unit_coords[c])
    rows[r][c] = f.add(rows[r][c], rows[r][c])
    phi = o.linmap(rows)
    bad = _ref_anti_failures(phi, o)
    assert bad and "unit" not in bad and bad[0][0] >= 1
    opposite = o.table.opposite()
    calls = []
    mul_ints = MulTable.mul_ints

    def counting(table, x, y):
        if table is opposite:
            calls.append(1)
        return mul_ints(table, x, y)

    monkeypatch.setattr(MulTable, "mul_ints", counting)
    assert not linmaps.is_automorphism(phi, o.table, o.unit_coords, target=opposite)
    assert len(calls) == bad[0][0] + 1


def _ref_isotope_check(x, y):
    """The isotope check in field values: U_x U_y against the triple product
    {a, y, b} = (a.y).b + (b.y).a - (a.b).y summed from the Jordan table, and
    the isotope unit y^-1."""
    alg = x.algebra
    f = alg.field
    mul = _ref_product(alg.table, f)

    def triple(a, b):
        ay_b, by_a, ab_y = mul(mul(a, y.coords), b), mul(mul(b, y.coords), a), mul(mul(a, b), y.coords)
        return tuple(f.sub(f.add(u, v), w) for u, v, w in zip(ay_b, by_a, ab_y))

    ux, uy = alg.uop_matrix(x.coords), alg.uop_matrix(y.coords)
    m = tuple(tuple(functools.reduce(f.add, map(f.mul, row, col)) for col in zip(*uy)) for row in ux)
    return not _ref_failures(m, triple, alg.jinv_raw(y.coords), f, commutative=True)


@pytest.mark.parametrize("name, x, y, verdict", [
    ("Q", (1, 1, 1), (1, 1, 1), True),
    ("Q", (1, -1, -1), (1, 1, 1), True),
    ("Q", (1, -1, 1), (-1, 1, -1), True),
    # i = 5 is a square root of -1 mod 13: U_{i e} = -id moves the unit
    ("Fp:13", (5, 5, 5), (1, 1, 1), False),
    ("Fp:13", (5, 5, 5), (1, -1, -1), False),
    ("Fp:13", (1, -1, -1), (1, 1, 1), True),
])
def test_isotope_automorphism_check_matches_reference(name, x, y, verdict):
    """Over Q the verdict is always True: U_x U_y of order 2 fixes y^-1 up
    to sign, and the sign -1 needs N(x)^2 N(y)^2 = -1.  Over F_13 it does not."""
    f = Q() if name == "Q" else Fp(13)
    alg = Catalog(f).J
    x, y = alg.diag(*x), alg.diag(*y)
    assert _ref_isotope_check(x, y) is verdict
    assert isotope_automorphism_check(x, y) is verdict


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_isotope_check_reads_its_table_off_left_ints_rows(name, monkeypatch):
    """The y-isotope's table is read off 28 `left_ints` calls, one on the
    opposite table and one per basis vector, and makes no `mul_ints` call;
    the whole check for x = diag(1, -1, -1), y = 1 makes at most 650
    `mul_ints` calls."""
    f = Q() if name == "Q" else Fp(7)
    alg = Catalog(f).J
    calls = {"mul_ints": 0, "left_ints": 0}
    for kernel in calls:
        def counting(table, *args, _kernel=kernel, _run=getattr(MulTable, kernel)):
            calls[_kernel] += 1
            return _run(table, *args)
        monkeypatch.setattr(MulTable, kernel, counting)
    alg.table.opposite()
    involutions._isotope_table(alg.table, [1] * 27, f)
    assert calls == {"mul_ints": 0, "left_ints": 28}
    calls["mul_ints"] = 0
    assert isotope_automorphism_check(alg.diag(1, -1, -1), alg.diag(1, 1, 1))
    assert calls["mul_ints"] <= 650


def test_uop_map_slots_hold_three_squared_table_sums(monkeypatch):
    """The slots of `AlbertAlgebra.uop_map` hold 3 S^2 max|x|^2 (its
    docstring), and the product of a table can reach that bound: on the
    first two of 27 coordinates, e_0.e_0 = e_0 and e_0.e_1 = e_0 - 2 e_1
    (S = 2), x = -60 (e_0 + e_1) puts 3 * 4 * 60^2 = 43,200 in U_x, which
    needs 4-byte slots; the bound with any one of its factors dropped would
    take 2-byte slots and misread it.  U_x is compared with
    2 x.(x.e_j) - (x.x).e_j summed in Fractions."""
    f = Q()
    alg = split_albert(f)
    table = MulTable(27, [(0, 0, 0, 1), (0, 1, 0, 1), (0, 1, 1, -2)])
    monkeypatch.setattr(alg, "table", table)
    mul = _ref_product(table, f)
    x = (f.from_int(-60),) * 2 + (f.zero(),) * 25
    xx = mul(x, x)
    basis = [tuple(f.from_int(int(i == j)) for j in range(27)) for i in range(27)]
    cols = [tuple(2 * u - v for u, v in zip(mul(x, mul(x, e)), mul(xx, e))) for e in basis]
    assert max(abs(v) for col in cols for v in col) == 3 * 2**2 * 60**2
    assert alg.uop_map(x).matrix == tuple(zip(*cols))


def test_isotope_table_reads_every_pair_in_the_order_of_the_triple():
    """The y-isotope's table (`involutions._isotope_table`) holds
    {e_i, y, e_j} = (e_i.y).e_j + (e_j.y).e_i - (e_i.e_j).y at every basis
    pair, in both orders, against the triple summed in Fractions.  The
    table is not commutative: with e_0.e_0 = -2 e_1 and e_0.e_1 = -2 e_0 and
    y = -5000 (e_0 + e_1), {e_0, y, e_0} = -40,000 e_1,
    {e_0, y, e_1} = 20,000 e_1 and {e_1, y, e_0} = -20,000 e_0, which a
    table mirrored from the pairs i <= j would give as 20,000 e_1."""
    f = Q()
    table = MulTable(2, [(0, 0, 1, -2), (0, 1, 0, -2)])
    mul = _ref_product(table, f)
    y = (f.from_int(-5000),) * 2
    basis = [(f.one(), f.zero()), (f.zero(), f.one())]
    want = {}
    for i, j in itertools.product(range(2), repeat=2):
        a, b = basis[i], basis[j]
        for k, (u, v, w) in enumerate(zip(mul(mul(a, y), b), mul(mul(b, y), a), mul(mul(a, b), y))):
            if u + v - w:
                want[i, j, k] = u + v - w
    assert want == {(0, 0, 1): -40000, (0, 1, 1): 20000, (1, 0, 0): -20000}
    iso = involutions._isotope_table(table, [-5000, -5000], f)
    assert {(i, j, k): c for i, j, k, c in iso.entries} == want


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_dagger_is_computed_once_per_map(name, monkeypatch):
    """A map keeps its dagger: a second `dagger` and a `lift_inv` of the same
    map run neither the cross products nor the product law again; an equal
    but distinct map runs both again and gets the same matrix; a failed
    certificate is not kept and runs again."""
    f = FIELDS[name]
    cat = Catalog(f)
    J = cat.J
    calls = _spy_certificate(monkeypatch)
    u = _uop_map(J, J.sample_norm_one(random.Random(6), 2))
    dag = dagger(u, J)
    assert dagger(u, J) is dag
    lifted = cat.B.lift_inv(u)
    assert lifted.matrix == cat.B.linmap(
        linalg.block_diag((linalg.identity(2, f), u.matrix, dag.matrix), f)).matrix
    assert calls == [("_image_rows", u), ("_rows_agree",)]
    fresh = LinMap(u.matrix, f, ALBERT, J.basis_tag)
    assert dagger(fresh, J).matrix == dag.matrix
    assert calls[2:] == [("_image_rows", fresh), ("_rows_agree",)]
    three = _scalar_map(J, 3)
    for _ in range(2):
        with pytest.raises(NotNormPreserving):  # N(3x) = 27 N(x)
            dagger(three, J)
    assert calls[4:] == [("_image_rows", three)] * 2


def _spy_certificate(monkeypatch):
    """Record ("_image_rows", map) for every pass of image rows and
    ("_rows_agree",) for every comparison, the two product steps of the
    Inv(J) certificate; the multiplier check runs between them and stops it
    before the comparison when it fails."""
    calls = []
    image_rows, rows_agree = linmaps._image_rows, linmaps._rows_agree
    monkeypatch.setattr(linmaps, "_image_rows",
                        lambda phi, *args: calls.append(("_image_rows", phi)) or image_rows(phi, *args))
    monkeypatch.setattr(linmaps, "_rows_agree",
                        lambda *args: calls.append(("_rows_agree",)) or rows_agree(*args))
    return calls


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_dagger_of_dagger_is_kept(name, monkeypatch):
    """dagger is an involution of Inv(J): after `dagger` of a U_x certifies
    it, dagger(dagger(u)) has u's matrix and runs no second certificate, and
    both match the trace-form solve.  The kept map is a copy of u, not u, so
    u and its dagger hold no reference cycle."""
    f = FIELDS[name]
    alg = split_albert(f)
    u = _uop_map(alg, alg.sample_norm_one(random.Random(24), 2))
    calls = _spy_certificate(monkeypatch)
    dag = dagger(u, alg)
    back = dagger(dag, alg)
    assert back.matrix == u.matrix and back is not u
    assert back._ints == u._ints and back._dagger is None
    assert calls == [("_image_rows", u), ("_rows_agree",)]
    assert is_inv_member(dag, alg)
    assert len(calls) == 2
    assert dag.matrix == _ref_dagger(u, alg)
    assert back.matrix == _ref_dagger(dag, alg)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_certified_map_keeps_its_dagger(name, monkeypatch):
    """After `is_inv_member` certifies a U_x, `dagger` and `lift_inv` of it
    run neither the cross products nor the product law and return the
    matrices a fresh map gets; the kept dagger's integer form is the one
    its matrix gives.  A failed certificate keeps nothing: a perturbed U_x
    and the diag witness both pass the multiplier check and fail the
    product law."""
    f = FIELDS[name]
    cat = Catalog(f)
    J = cat.J
    u = _uop_map(J, J.sample_norm_one(random.Random(22), 2))
    fresh = LinMap(u.matrix, f, ALBERT, J.basis_tag)
    want_dagger, want_lift = dagger(fresh, J).matrix, cat.B.lift_inv(fresh).matrix
    assert is_inv_member(u, J)
    calls = _spy_certificate(monkeypatch)
    dag = dagger(u, J)
    assert dag.matrix == want_dagger
    assert dag._ints == LinMap(dag.matrix, f, ALBERT, J.basis_tag)._ints
    assert cat.B.lift_inv(u).matrix == want_lift
    assert calls == []
    alg = split_albert(f)
    ux = _uop_map(alg, alg.sample_norm_one(random.Random(23), 2))
    perturbed, witness = _perturbed(ux), _trace_check_witness(alg)
    for phi in (perturbed, witness):
        assert not is_inv_member(phi, alg)
        assert phi._dagger is None
    assert calls == [("_image_rows", perturbed), ("_rows_agree",),
                     ("_image_rows", witness), ("_rows_agree",)]


# -- dagger from cross products against the trace-form solve ------------------------

def _ref_dagger(phi, alg):
    """The solution X of M^T G X = G by exact elimination, with M the map's
    matrix and G the Gram matrix: phi-dagger solved from the trace form."""
    f = alg.field
    lhs = linalg.mat_mul(linalg.transpose(phi.matrix), alg.gram, f)
    return linalg.solve_right(lhs, alg.gram, f)


def _dagger_cases(f):
    """(algebra, map) pairs in Inv(J): U_x on both models and on a Hermitian
    model whose cross table has coefficients other than +-1, phi(u, v, w),
    nu_g, t-hat, s, a product of two U-operators, and U_x for
    x = diag(a, b, 1/(ab)) with 30-digit a and b."""
    rng = random.Random(12)
    cat = Catalog(f)
    J, jt = cat.J, cat.Jt
    # 5/7 has no residue mod 7, so the third kappa is 5/3 over F_7
    kappas = ("-1/2", "3", "5/3" if f == Fp(7) else "5/7")
    octonions = CDAlgebra(f, kappas=tuple(f.parse_scalar(k) for k in kappas))
    twisted = hermitian(octonions, gamma=tuple(f.parse_scalar(g) for g in ("1", "2/3", "-5")))
    cases = [(alg, _uop_map(alg, alg.sample_norm_one(rng, 2))) for alg in (J, twisted)]
    cases.append((jt, _uop_map(jt, _tits_norm_one(jt, rng))))
    zero = f.zero()
    mats = []
    for _ in range(3):
        x1, x2 = f.sample_nonzero(rng), f.sample_nonzero(rng)
        mats.append(((x1, zero, zero), (zero, x2, zero), (zero, zero, f.inv(f.mul(x1, x2)))))
    cases.append((jt, jt.linmap(jt.tits_phi_matrix(*mats))))
    cases += [(J, _nu_g_map(J, 3)), (J, cat.realize("t", "J")), (J, cat.realize("s", "J"))]
    ux, uy = (_uop_map(J, J.sample_norm_one(rng, 2)) for _ in range(2))
    cases.append((J, ux.compose(uy)))
    a, b = f.from_int(10**29 + 7), f.from_int(2 * 10**29 + 3)
    cases.append((J, _uop_map(J, J.diag(a, b, f.inv(f.mul(a, b))))))
    return cases


@pytest.mark.parametrize("name", list(FIELDS))
def test_dagger_equals_the_trace_form_solve(name):
    """`dagger` builds each column from one cross product and certifies it
    with the product law and one trace-form entry; on every map of
    `_dagger_cases` its matrix is the solution of the trace-form system,
    entry for entry."""
    f = FIELDS[name]
    cases = _dagger_cases(f)
    if f == Q():
        ux = cases[-1][1]
        assert max(abs(v) for row in ux._ints[1] for v in row) > 2**64
        # the twisted model's cross table has coefficients other than +-1
        assert linmaps._dagger_plan(cases[1][0])[1] > 1
    for alg, phi in cases:
        assert dagger(phi, alg).matrix == _ref_dagger(phi, alg)


@pytest.mark.parametrize("name", list(FIELDS))
def test_dagger_check_rejects_a_map_past_the_guard(name):
    """A map outside Inv(J) is refused: 3 id, 0 and 3 nu_2 keep the product
    law with a norm multiplier other than 1 (27, 0 and 27), which the
    multiplier check refuses, and a perturbed U_x and the witness fail the
    law, so `dagger` raises NotNormPreserving and keeps no result on the
    map."""
    f = FIELDS[name]
    alg = split_albert(f)
    ux = _uop_map(alg, alg.sample_norm_one(random.Random(13), 2))
    scaled_nu = _nu_g_map(alg, 2).compose(_scalar_map(alg, 3))
    witness = _trace_check_witness(alg)
    for phi in (_scalar_map(alg, 3), _scalar_map(alg, 0), _perturbed(ux), scaled_nu, witness):
        with pytest.raises(NotNormPreserving):
            dagger(phi, alg)
        assert phi._dagger is None


def test_dagger_over_q_does_no_fraction_arithmetic(monkeypatch):
    """After a warm-up call has built the algebra's cached data, `dagger` of
    a fresh U_x over Q reads and builds Fractions but does no arithmetic on
    them: the cross products, the multiplier check and the product law run
    in ints."""
    alg = split_albert(Q())
    rng = random.Random(14)
    dagger(_uop_map(alg, alg.sample_norm_one(rng, 2)), alg)
    ux = _uop_map(alg, alg.sample_norm_one(rng, 2))
    expected = _ref_dagger(ux, alg)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in dagger")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, op, forbidden)
    assert dagger(ux, alg).matrix == expected


def test_linmap_of_a_matrix_is_canonical_and_checked():
    """`LinMap(matrix)` over F_p reduces int entries mod p, so 8 and 1 (or
    -1 and 6) over F_7 make one map, equal and hashed alike; a value that is
    not an int over F_p, or not an int or a `Fraction` over Q, raises
    MixedFields, in a matrix and in the coordinates `apply` reads."""
    f = Fp(7)
    ident = LinMap(((1, 0), (0, 1)), f, "x", "x")
    eight = LinMap(((8, 0), (0, 1)), f, "x", "x")
    assert eight.is_identity() and eight == ident and hash(eight) == hash(ident)
    assert eight._ints == ident._ints
    assert LinMap(((-1, 0), (0, 1)), f, "x", "x") == LinMap(((6, 0), (0, 1)), f, "x", "x")
    assert ident.apply((8, -1)) == (1, 6)
    for field, bad in ((f, Fraction(1, 2)), (f, 1.0), (Q(), 0.5), (Q(), "1")):
        with pytest.raises(MixedFields, match="is not a value of"):
            LinMap(((bad, 0), (0, 1)), field, "x", "x")
        with pytest.raises(MixedFields, match="is not a value of"):
            LinMap(((1, 2), (3, 4)), field, "x", "x").apply((bad, 1))


@pytest.mark.parametrize("length", [27, 57])
@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_apply_rejects_a_vector_of_the_wrong_length(name, length):
    f = FIELDS[name]
    s = Catalog(f).realize("s", "B")
    with pytest.raises(CarrierMismatch):
        s.apply((f.one(),) * length)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_zero_dimensional_map(name):
    """The map on the zero space is its identity, squares to it, sends ()
    to () and is an automorphism of the empty table."""
    f = FIELDS[name]
    m = LinMap((), f, "zero", "zero")
    assert m.is_identity() is True
    assert m.order_divides_two() is True
    assert m.apply(()) == ()
    assert linmaps.is_automorphism(m, MulTable(0, []), ()) is True


@pytest.mark.parametrize("name", ["R", "Kbar", "Qp:5"])
def test_map_over_a_field_without_arithmetic_is_refused(name):
    """Such a map would apply and compare its entries as rationals, and
    answer silently: it is refused when it is made."""
    one, two = Fraction(1), Fraction(2)
    with pytest.raises(NonArithmeticField):
        LinMap(((one, two), (two + one, two + two)), FieldSpec.parse(name), "x", "x")


def test_is_identity_reads_the_integer_form():
    """is_identity is M = d I for the integer form (d, M) of a Q map: the
    identity holds it; with d > 1, a diagonal of 1/2 (M = I) and the
    identity with one changed entry do not; U_x U_{x^-1}, the product of
    two maps with d > 1, is the identity."""
    alg = split_albert(Q())
    f = alg.field
    ident = alg.linmap(linalg.identity(27, f))
    assert ident.is_identity()
    half = alg.linmap(tuple(tuple(f.parse_scalar("1/2") if i == j else f.zero()
                                  for j in range(27)) for i in range(27)))
    cases = [half] + [_with_entry(ident, i, j, f.parse_scalar(v))
                      for i, j, v in ((3, 3, "3/2"), (3, 4, "1/2"), (26, 0, "-1/5"))]
    for phi in cases:
        assert phi._ints[0] > 1 and not phi.is_identity()
    assert not _with_entry(ident, 0, 0, f.from_int(2)).is_identity()
    x = alg.sample_norm_one(random.Random(20), 2)
    ux = _uop_map(alg, x)
    uinv = _uop_map(alg, alg.element(alg.jinv_raw(x.coords)))
    assert ux._ints[0] > 1 and uinv._ints[0] > 1 and not ux.is_identity()
    assert ux.compose(uinv).is_identity()


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_integer_form_is_built_once_per_map(name, monkeypatch):
    """Making one U_x, `dagger` (its certificate) and then `is_inv_member`
    on it, and `dagger` of its dagger, convert its matrix to integers once,
    counting both `linmaps.to_ints` and `linmaps.checked_ints` (the
    conversion of `LinMap(matrix)`)."""
    f = FIELDS[name]
    alg = split_albert(f)
    x = alg.sample_norm_one(random.Random(21), 2)
    conversions = []

    def counting(real):
        def spy(values, field):
            if len(values) == 27 * 27:
                conversions.append(1)
            return real(values, field)
        return spy

    for attr in ("to_ints", "checked_ints"):
        monkeypatch.setattr(linmaps, attr, counting(getattr(linmaps, attr)))
    u = _uop_map(alg, x)
    dag = dagger(u, alg)
    assert is_inv_member(u, alg)
    assert dagger(dag, alg)._ints == u._ints
    assert len(conversions) == 1


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_maps_are_built_on_integer_forms(name, monkeypatch):
    """`compose`, `block_diag_map` (a Brown lift), the dagger that
    `is_inv_member` keeps, from a certificate run on the lift or on a fresh
    copy of U_x, and the dagger's dagger make no field value (no `from_ints`
    call) until `matrix` is read; each map then equals the map made from its
    matrix, with the same integer form and hash."""
    f = FIELDS[name]
    cat = Catalog(f)
    J, B = cat.J, cat.B
    u = _uop_map(J, J.sample_norm_one(random.Random(25), 2))
    s, w = cat.realize("s", "J"), B.varpi()
    calls = []
    from_ints = linmaps.from_ints
    monkeypatch.setattr(linmaps, "from_ints", lambda *args: calls.append(1) or from_ints(*args))
    lift = B.lift_inv(u)
    maps = [u.compose(s), lift, w.compose(lift),
            dagger(LinMap.of_ints(*u._ints, f, ALBERT, J.basis_tag), J),
            u._dagger, u._dagger._dagger]
    assert calls == []
    monkeypatch.undo()
    if f == Q():
        assert u._ints[0] > 1 and lift._ints[0] > 1
    for m in maps:
        fresh = LinMap(m.matrix, f, m.carrier, m.basis_tag)
        assert m == fresh and m._ints == fresh._ints and hash(m) == hash(fresh)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_inverse_map_solves_on_the_integer_form(name):
    """`inverse_map` solves M X = d I on the integer form (d, M): a dense
    U_x, its Brown lift and the catalog maps s, varpi and t.varpi invert to
    the map of the inverse of their matrices, and compose with it to the
    identity, with no matrix view built on either map; a singular map
    raises SingularGram."""
    f = FIELDS[name]
    cat = Catalog(f)
    J, B = cat.J, cat.B
    u = _uop_map(J, J.sample_norm_one(random.Random(25), 2))
    maps = [u, B.lift_inv(u), cat.realize("s", "J"), cat.realize("varpi", "B"),
            cat.realize("t.varpi", "B")]
    if f == Q():
        assert u._ints[0] > 1 and maps[1]._ints[0] > 1
    for m in maps:
        inv = m.inverse_map()
        assert "matrix" not in m.__dict__ and "matrix" not in inv.__dict__
        assert inv == LinMap(linalg.inverse(m.matrix, f), f, m.carrier, m.basis_tag)
        assert m.compose(inv).is_identity()
    singular = _uop_map(J, J.diag(1, 1, 0))
    with pytest.raises(SingularGram):
        singular.inverse_map()


def test_map_equality_is_matrix_equality():
    """Maps compare by their matrices, field and basis tag: 2/4 equals 1/2
    whether the map is made from its matrix or from an integer form, and
    under another carrier label; a one-entry change or another basis tag is
    another map."""
    q, half, zero, one = Q(), Fraction(1, 2), Fraction(0), Fraction(1)
    m = LinMap(((Fraction(2, 4), zero), (zero, one)), q, "x", "x")
    same = [LinMap(((half, zero), (zero, one)), q, "x", "x"),
            LinMap.of_ints(2, ((1, 0), (0, 2)), q, "x", "x"),
            LinMap(((half, zero), (zero, one)), q, "label", "x")]
    for other in same:
        assert m == other and hash(m) == hash(other) and m.matrix == other.matrix
    others = [LinMap(((half, Fraction(1, 3)), (zero, one)), q, "x", "x"),
              LinMap(((half, zero), (zero, one)), q, "x", "y")]
    for other in others:
        assert m != other


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_involution_is_squared_once(name, monkeypatch):
    """`realize_involution` and then `fixed_subalgebra` on the same map
    square it once: exactly one `compose` of the map with itself, and the
    map keeps its order-2 verdict."""
    f = FIELDS[name]
    cat = Catalog(f)
    squared = []
    compose = LinMap.compose

    def composing(self, other):
        if other is self:
            squared.append(self)
        return compose(self, other)

    monkeypatch.setattr(LinMap, "compose", composing)
    for space, ctx, dim in (("J", cat.J, 11), ("B", cat.B, 24)):
        del squared[:]
        m = cat.realize_involution("s", space)
        assert fixed_subalgebra(m, ctx).dimension == dim
        assert m.order_divides_two()
        assert len(squared) == 1 and squared[0] is m


@pytest.mark.parametrize("name", list(FIELDS))
def test_order_divides_two_matches_field_value_square(name):
    """`order_divides_two` (the map's `compose` with itself, on the integer
    form) agrees with the square summed in field values, on a 2x2 block
    [[a, b], [c, -a]] with a^2 + b c = 1 next to a -1: 30-digit entries and
    a denominator over Q, large residues over F_p; the same map with one
    entry moved by 1 is not an involution."""
    f = FIELDS[name]
    a = f.parse_scalar(f"{10**29 + 3}/11")
    b = f.parse_scalar("-2/3")
    c = f.mul(f.sub(f.one(), f.mul(a, a)), f.inv(b))
    zero = f.zero()
    for corner in (c, f.add(c, f.one())):
        m = ((a, b, zero), (corner, f.neg(a), zero), (zero, zero, f.from_int(-1)))
        square = [[functools.reduce(f.add, map(f.mul, row, col)) for col in zip(*m)]
                  for row in m]
        want = [[f.from_int(int(i == j)) for j in range(3)] for i in range(3)]
        assert LinMap(m, f, "blk3", "blk3").order_divides_two() is (square == want)
        assert (square == want) is (corner is c)


def test_order_divides_two_slots_hold_n_products():
    """The verdict of `order_divides_two` where an unreduced sum of n
    products exceeds max|M|^2: over F_181 the involution
    [[170, 180], [120, 11]] (170^2 + 180 * 120 = 50,500 = 1 mod 181) has
    M M = 50,500 at (0, 0) as an int, above 2^15 and above
    max|M|^2 = 32,400, so a check that held only max|M|^2 per entry would
    misread it; with one entry moved by 1 it is no involution."""
    f = Fp(181)
    for corner, verdict in ((120, True), (121, False)):
        m = ((170, 180), (corner, 11))
        square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in m]
        assert square[0][0] >= 2**15 > 180**2
        assert ([[v % 181 for v in row] for row in square] == [[1, 0], [0, 1]]) is verdict
        assert LinMap(m, f, "blk2", "blk2").order_divides_two() is verdict


# -- the one-pass Inv(J) certificate against a Fraction reference -------------------

CERT_FIELDS = {"Q": Q(), "Fp:7": Fp(7), "Fp:11": Fp(11), "Fp:1000003": Fp(1000003)}


def _fraction_inverse(a):
    """The inverse of a square matrix of `Fraction`s by Gauss-Jordan
    elimination."""
    n = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        pr = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pr] = rows[pr], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                q = rows[r][c]
                rows[r] = [v - q * w for v, w in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def _fraction_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _fraction_dagger(matrix, alg):
    """phi-dagger = G^-1 M^-T G for the matrix M of phi and the Gram matrix G,
    in plain `Fraction`s on the integer lifts of the values, reduced mod p at
    the end over F_p (M and G are invertible mod p, so their inverses over Q
    have denominators prime to p)."""
    f = alg.field
    m = [[Fraction(v) for v in row] for row in matrix]
    g = [[Fraction(v) for v in row] for row in alg.gram]
    mt_inv = _fraction_inverse([list(col) for col in zip(*m)])
    psi = _fraction_product(_fraction_product(_fraction_inverse(g), mt_inv), g)
    if f.kind == "Fp":
        return tuple(tuple(v.numerator * pow(v.denominator, -1, f.p) % f.p for v in row)
                     for row in psi)
    return tuple(map(tuple, psi))


def _count_cross_products(monkeypatch, alg):
    """A list that gets one entry per `mul_ints` call on alg's cross table."""
    calls = []
    mul_ints = MulTable.mul_ints
    cross = alg.cross_table()

    def counting(table, x, y):
        if table is cross:
            calls.append(1)
        return mul_ints(table, x, y)

    monkeypatch.setattr(MulTable, "mul_ints", counting)
    return calls


@pytest.mark.parametrize("name", list(CERT_FIELDS))
def test_certificate_dagger_matches_a_fraction_reference(name, monkeypatch):
    """The dagger the certificate keeps equals G^-1 M^-T G in `Fraction`s for
    a U_x, an E6 Tits torus element, the catalog's t and the U_V bridge, and
    a fresh certificate makes 54 cross-table `mul_ints` calls: 27 image rows
    and 27 rows of basis products (81 when the dagger's cross products were
    made apart from the law's)."""
    f = CERT_FIELDS[name]
    cat = Catalog(f)
    J, jt = cat.J, cat.Jt
    x = J.sample_norm_one(random.Random(34), 2)
    torus = make_torus_element(jt, [f.from_int(v) for v in (2, 3, 5, -2, 4, 6)], "E6")
    cases = [(J, _uop_map(J, x)), (jt, torus), (J, cat.realize("t", "J")),
             (J, make_uv_bridge(J))]
    want = [_fraction_dagger(phi.matrix, alg) for alg, phi in cases]
    for (alg, phi), ref in zip(cases, want):
        calls = _count_cross_products(monkeypatch, alg)
        fresh = LinMap.of_ints(*phi._ints, f, ALBERT, alg.basis_tag)
        assert dagger(fresh, alg).matrix == ref
        assert len(calls) == 54
        monkeypatch.undo()


@pytest.mark.parametrize("name", list(CERT_FIELDS))
def test_certificate_refuses_the_negative_controls(name, monkeypatch):
    """A one-entry-perturbed U_x and the diag witness (1/2 at e_4, 2 at e_5)
    pass the multiplier check and fail the law, which stops at its first
    failing row; 2 id passes the law with multiplier 8, which the
    multiplier check refuses after the 27 image rows except where
    8 = 1, over F_7, with 54 cross-table calls.  A map that fails keeps no
    dagger."""
    f = CERT_FIELDS[name]
    alg = split_albert(f)
    ux = _uop_map(alg, alg.sample_norm_one(random.Random(35), 2))
    two = _scalar_map(alg, 2)
    for phi, member, law_runs in ((_perturbed(ux), False, True),
                                  (_trace_check_witness(alg), False, True),
                                  (two, f == Fp(7), f == Fp(7))):
        counted = _count_cross_products(monkeypatch, alg)
        calls = _spy_certificate(monkeypatch)
        assert is_inv_member(phi, alg) is member
        assert calls == [("_image_rows", phi)] + [("_rows_agree",)] * law_runs
        if member:
            assert len(counted) == 54
        elif law_runs:  # the comparison stops at its first failing row
            assert 27 < len(counted) < 54
        else:
            assert len(counted) == 27
        assert (phi._dagger is not None) is member
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["Q", "Fp:5", "Fp:7", "Fp:1000003"])
def test_cross_symmetric_maps_are_scalars(name):
    """Step 5 of the proof in `is_inv_member`, exactly, on both models: the
    maps A y = (Tr(y) Tr(a) - Tr(y, a)) / 2 e - y # a with y # A z = z # A y
    on every basis pair i < j are those with a in k e, on both models and on
    Her3 of the octonions CD(-1,-1,-1) (a division algebra over Q) with
    gamma = (1, 2, -3).  The system is linear
    in a, with column m the identity's residues for a = e_m, in integers:
    with D the cross table's denominator (`MulTable.mul_ints` gives D x # y)
    and DG G = `gram_int`, 2 D DG A e_j is
    D (DG Tr(e_j) Tr(e_m) - DG G_jm) e - 2 DG D (e_j # e_m).  Its kernel is
    span(e)."""
    f = {"Q": Q(), "Fp:5": Fp(5), "Fp:7": Fp(7), "Fp:1000003": Fp(1000003)}[name]
    twisted = hermitian(CDAlgebra(f, kappas=(-1, -1, -1)), gamma=(1, 2, -3))
    for alg in (split_albert(f), tits(f), twisted):
        cross, dg = alg.cross_table(), alg.gram_den
        d = cross.int_table()[0]
        gram = {(i, j): g for i, j, g in alg.gram_int}
        t = [int(v) for v in alg.unit_coords]  # the unit's 0/1 coordinates, also Tr(e_j)
        basis = [[int(i == j) for j in range(27)] for i in range(27)]

        def a_map(m, j):
            c = d * (dg * t[j] * t[m] - gram.get((j, m), 0))
            return [c * u - 2 * dg * v for u, v in zip(t, cross.mul_ints(basis[j], basis[m]))]

        images = [[a_map(m, j) for j in range(27)] for m in range(27)]
        rows = []
        for i, j in itertools.combinations(range(27), 2):
            residues = [[x - y for x, y in zip(cross.mul_ints(basis[i], ay[j]),
                                                cross.mul_ints(basis[j], ay[i]))]
                        for ay in images]
            rows += [[v % f.p for v in row] if f != Q() else row for row in zip(*residues)]
        assert linalg.same_span(linalg.kernel(rows, f)[0], [alg.unit_coords], f)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_dagger_plan_picks_ordered_pairs_of_a_symmetric_table(name):
    """Every pick of `_dagger_plan` is a pair i <= j, as the image rows hold
    only those, on both models and on a model whose cross table has
    coefficients other than +-1; a cross table with one entry e_i # e_j
    (i < j) changed and not its mirror raises InternalError."""
    f = FIELDS[name]
    kappas = ("-1/2", "3", "5/3" if f == Fp(7) else "5/7")
    octonions = CDAlgebra(f, kappas=tuple(f.parse_scalar(k) for k in kappas))
    twisted = hermitian(octonions, gamma=tuple(f.parse_scalar(g) for g in ("1", "2/3", "-5")))
    for alg in (split_albert(f), tits(f), twisted):
        picks = linmaps._dagger_plan.__wrapped__(alg)[0]
        assert len(picks) == 27 and all(i <= j for i, j, _ in picks)
    alg = split_albert(f)
    entries = list(alg.cross_table().entries)
    at = next(n for n, (i, j, _, _) in enumerate(entries) if i < j)
    i, j, k, c = entries[at]
    entries[at] = (i, j, k, f.add(c, c))
    alg._cross_table = MulTable(27, entries)
    with pytest.raises(InternalError, match="not symmetric"):
        linmaps._dagger_plan.__wrapped__(alg)
