import itertools
import random

import pytest

from brownalg.albert import AlbertAlgebra, split_albert
from brownalg.errors import CarrierMismatch, NotNormPreserving
from brownalg.fields import Fp, Q
from brownalg.involutions import Catalog
from brownalg.linmaps import (
    ALBERT,
    LinMap,
    dagger,
    identity_map,
    is_aut_member,
    is_inv_member,
    norm_preserving_sampled,
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
        ident = identity_map(alg.field, ALBERT, alg.basis_tag)
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
    m = identity_map(a7.field, ALBERT, a7.basis_tag)
    with pytest.raises(CarrierMismatch):
        is_inv_member(m, aq)


def test_fixed_space_of_identity():
    alg = split_albert(Fp(7))
    ident = identity_map(alg.field, ALBERT, alg.basis_tag)
    assert len(ident.fixed_space()) == 27


def test_norm_preserving_sampled_matches_certificate():
    alg = split_albert(Q())
    f = alg.field
    cols = [alg.nu_g_raw(f.from_int(2), b.coords) for b in alg.basis()]
    m = LinMap(tuple(tuple(cols[j][i] for j in range(27)) for i in range(27)),
               f, ALBERT, alg.basis_tag)
    assert norm_preserving_sampled(m, alg, 20) == is_inv_member(m, alg)


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


# -- the integer guards against a field-arithmetic reference ------------------

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
    """Members and one-entry-perturbed non-members; the certificate reference
    (3654 norm_raw pairs) runs on the cheap cases only."""
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
                assert norm_preserving_sampled(psi, alg, samples, seed) == member
            if certify:
                assert _reference_verdict(psi, alg, _certificate_points(f)) == member
                assert is_inv_member(psi, alg) == member


def test_norm_form_fitted_on_first_norm_check(monkeypatch):
    fits = []
    fit = AlbertAlgebra._fit_norm_form
    monkeypatch.setattr(AlbertAlgebra, "_fit_norm_form",
                        lambda self: fits.append(self) or fit(self))
    cat = Catalog(Q())
    cat.Jt, cat.Bt  # noqa: B018  (the lazily built Tits models)
    assert fits == []
    ident = identity_map(cat.J.field, ALBERT, cat.J.basis_tag)
    assert is_inv_member(ident, cat.J)
    assert norm_preserving_sampled(ident, cat.J, 5)
    assert fits == [cat.J]
