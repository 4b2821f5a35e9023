"""The shared algebra protocol (`kernels.Algebra`) and element base class
(`kernels.Elem`) on the three algebras of the tower."""

import functools
import json
import random
from fractions import Fraction

import pytest

from brownalg import linalg
from brownalg.albert import hermitian, split_albert, tits
from brownalg.brown import BrownAlgebra
from brownalg.cayley import CDAlgebra
from brownalg.errors import AlgebraMismatch, MixedFields, ModelMismatch
from brownalg.kernels import Algebra
from brownalg.fields import _ZERO, Fp, Q
from brownalg.linmaps import ALBERT, BROWN, OCT

FIELDS = [Q(), Fp(7)]
KINDS = ["composition", "albert", "brown"]


@functools.lru_cache(maxsize=None)
def _pair(kind, field):
    """Two different algebras of one kind over one field; "tits" is the
    Tits model with varsigma 2, then the one with varsigma 1."""
    if kind == "composition":
        return CDAlgebra.split_octonions(field), CDAlgebra(field, (1, 1, 1))
    if kind == "tits":
        return tits(field, varsigma=2), tits(field)
    J = split_albert(field)
    if kind == "albert":
        return J, tits(field)
    return BrownAlgebra(J), BrownAlgebra(J, zeta=2)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_combining_different_algebras_raises(kind, field):
    a, b = _pair(kind, field)
    error = ModelMismatch if kind == "albert" else AlgebraMismatch
    x, y = a.unit(), b.unit()
    with pytest.raises(error):
        x + y
    with pytest.raises(error):
        x - y
    other = _pair("albert" if kind != "albert" else "composition", field)[0]
    with pytest.raises(error):
        x + other.unit()
    assert x + a.zero() == x
    assert (x - x) == a.zero() == -a.zero()
    assert x.scale(2) == x + x


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_equality_and_hash_follow_the_basis_tag(field):
    assert split_albert(field) == split_albert(field)
    assert hash(split_albert(field)) == hash(split_albert(field))
    assert split_albert(field) != tits(field)
    J = split_albert(field)
    assert BrownAlgebra(J) == BrownAlgebra(J)
    assert BrownAlgebra(J) != BrownAlgebra(J, zeta=2)
    assert CDAlgebra.split_octonions(field) == CDAlgebra.split_octonions(field)
    assert CDAlgebra.split_octonions(field) != CDAlgebra(field, (1, 1, 1))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_linmap_carries_carrier_field_and_tag(kind, field):
    alg = _pair(kind, field)[0]
    m = alg.linmap(linalg.identity(alg.dim, field))
    assert m.carrier == {"composition": OCT, "albert": ALBERT, "brown": BROWN}[kind]
    assert m.field == field
    assert m.basis_tag == alg.basis_tag
    assert m.is_identity()


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_sample_default_bound(kind, field):
    alg = _pair(kind, field)[0]
    bound = 5 if kind == "composition" else 4
    for s in range(3):
        rng = random.Random(s)
        want = tuple(field.sample_raw(rng, bound) for _ in range(alg.dim))
        assert alg.sample(random.Random(s)).coords == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_brown_unit(field):
    b = _pair("brown", field)[0]
    z = b.jalg.zero()
    assert b.unit() == b.element(1, 1, z, z)
    assert b.unit().coords == b.unit_coords


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS + ["tits"])
def test_json_names_the_algebra_and_loads_only_into_it(kind, field):
    a, b = _pair(kind, field)
    x = a.sample(random.Random(3))
    text = x.to_json()
    assert json.loads(text) == {"algebra": a.basis_tag,
                                "coords": [field.scalar_str(v) for v in x.coords]}
    assert a.elem.from_json(a, text) == x
    with pytest.raises(ModelMismatch if kind in ("albert", "tits") else AlgebraMismatch):
        a.elem.from_json(b, text)


def _same_kind_pairs(field):
    """Algebras of one kind whose elements the per-class formats loaded into
    each other with a changed value."""
    octonions = CDAlgebra.split_octonions(field)
    return {
        "gamma": (split_albert(field), hermitian(octonions, gamma=(-1, 1, 1))),
        "varsigma": (tits(field), tits(field, varsigma=2)),
        "octonions": (octonions, CDAlgebra(field, (-1, -1, -1))),
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", ["gamma", "varsigma", "octonions"])
def test_json_load_into_other_parameters_raises(case, field):
    a, b = _same_kind_pairs(field)[case]
    text = a.sample(random.Random(5)).to_json()
    with pytest.raises(ModelMismatch if case != "octonions" else AlgebraMismatch):
        a.elem.from_json(b, text)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_malformed_json_raises_value_error(kind, field):
    a = _pair(kind, field)[0]
    coords = [field.scalar_str(v) for v in a.unit_coords]
    for doc in (coords, {"coords": coords}, {"algebra": a.basis_tag},
                {"algebra": a.basis_tag, "coords": coords[1:]},
                {"algebra": a.basis_tag, "coords": [1] * a.dim},
                {"algebra": a.basis_tag, "coords": ["x"] * a.dim}):
        with pytest.raises(ValueError):
            a.elem.from_json(a, json.dumps(doc))
    with pytest.raises(ValueError):
        a.elem.from_json(a, "{")


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
def test_element_and_scale_take_only_field_values(kind, field):
    """A coordinate or scale factor that is not an int, or a Fraction over Q,
    raises: 1/2 over F_7 once gave a norm of 1/4, and 0.1 over Q a float."""
    a = _pair(kind, field)[0]
    x = a.unit()
    bad = [0.1, "1", None, Fraction(1, 2) if field == Fp(7) else 1j]
    for v in bad:
        with pytest.raises(MixedFields):
            Algebra.element(a, (v,) + a.unit_coords[1:])
        with pytest.raises(MixedFields):
            x.scale(v)
    assert Algebra.element(a, [1] + [0] * (a.dim - 1)).coords[0] == field.one()
    assert x.scale(-1) == -x


def test_algebra_parameters_take_only_field_values():
    q = Q()
    with pytest.raises(MixedFields):
        CDAlgebra(q, (0.5,))
    with pytest.raises(MixedFields):
        tits(q, varsigma=0.5)
    with pytest.raises(MixedFields):
        hermitian(CDAlgebra.split_octonions(Fp(7)), gamma=(Fraction(1, 2), 1, 1))
    with pytest.raises(MixedFields):
        BrownAlgebra(split_albert(q), zeta=0.5)



def _ref_raw(field, rng, bound):
    """One coordinate as `random.Random` draws it: randrange(p), or over Q a
    numerator in [-bound, bound] over a denominator in [1, bound]."""
    if field.p:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _ref_vector(field, rng, n, bound):
    return tuple(_ref_raw(field, rng, bound) for _ in range(n))


@pytest.mark.parametrize("field", [Fp(7), Fp(2**61 - 1), Q()], ids=str)
def test_sampling_draws_the_per_coordinate_stream(field):
    """`Algebra.sample` on O, J and B, `sample_nonzero`, `sample_invertible`
    and `sample_norm_one` give the values that one randrange(p), or one
    Fraction(randint(-bound, bound), randint(1, bound)) over Q, per
    coordinate gives, and leave the generator in the same state; a sampled
    zero over Q is the shared zero."""
    O = CDAlgebra.split_octonions(field)
    J = hermitian(O)
    B = BrownAlgebra(J)
    got, ref = random.Random(31), random.Random(31)

    def ref_invertible(bound):
        x = _ref_vector(field, ref, J.dim, bound)
        while not J.norm_raw(x):
            x = _ref_vector(field, ref, J.dim, bound)
        return x

    for bound in (3, 4, 10, None):
        for alg in (O, J, B):
            x = alg.sample(got, bound).coords
            assert x == _ref_vector(field, ref, alg.dim, bound or alg.sample_bound)
            if not field.p:
                assert all(v is _ZERO for v in x if not v)
            assert got.getstate() == ref.getstate()
        if bound is None:
            continue
        for _ in range(8):
            want = _ref_raw(field, ref, bound)
            while not want:
                want = _ref_raw(field, ref, bound)
            assert field.sample_nonzero(got, bound) == want
        assert J.sample_invertible(got, bound).coords == ref_invertible(bound)
        want = ref_invertible(bound)
        x = J.sample_norm_one(got, bound).coords
        assert x == J.phi_lambda_raw(field.inv(J.norm_raw(want)), want)
        assert got.getstate() == ref.getstate()
