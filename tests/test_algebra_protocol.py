"""The shared algebra protocol (`kernels.Algebra`) and element base class
(`kernels.Elem`) on the three algebras of the tower."""

import functools
import random

import pytest

from brownalg import linalg
from brownalg.albert import split_albert, tits
from brownalg.brown import BrownAlgebra
from brownalg.cayley import CDAlgebra
from brownalg.errors import AlgebraMismatch, ModelMismatch
from brownalg.fields import Fp, Q
from brownalg.linmaps import ALBERT, BROWN, OCT

FIELDS = [Q(), Fp(7)]
KINDS = ["composition", "albert", "brown"]


@functools.lru_cache(maxsize=None)
def _pair(kind, field):
    """Two different algebras of one kind over one field."""
    if kind == "composition":
        return CDAlgebra.split_octonions(field), CDAlgebra(field, (1, 1, 1))
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
