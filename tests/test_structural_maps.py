"""Structural maps built from their definitions: each catalog map agrees with
its coordinate formula, a map takes its size from its matrix, and a map is
matched to an algebra by its basis tag."""

import random

import pytest

from brownalg import linalg
from brownalg.albert import mat3_from_flat
from brownalg.cayley import CDAlgebra
from brownalg.errors import CarrierMismatch, NoValidOrdering
from brownalg.fields import Fp, Q
from brownalg.involutions import (
    Catalog,
    lift_c_to_j,
    make_t,
    make_t_star,
    make_theta_tits,
)
from brownalg.linmaps import OCT, LinMap, is_aut_member


def _t_hat(f, x):
    """(xi; a, b, c) -> (xi; t a, t b, t c) with t(a1, a2) = (a1, -a2), the
    lift of f_{-e} on the split octonions."""
    out = tuple(x[:3])
    for blk in range(3):
        a = x[3 + 8 * blk: 11 + 8 * blk]
        out += tuple(a[:4]) + tuple(f.neg(v) for v in a[4:])
    return out


def _tr3(a):
    return tuple(v for col in zip(*mat3_from_flat(a)) for v in col)


def _cases(cat):
    f = cat.field
    return {
        "varpi": (cat.B.varpi(), cat.B,
                  lambda x: (x[1], x[0]) + x[29:] + x[2:29]),
        "binv": (cat.B.binv_map(), cat.B,
                 lambda x: (x[1], x[0]) + x[2:]),
        "theta": (make_theta_tits(cat.Jt), cat.Jt,
                  lambda x: _tr3(x[:9]) + _tr3(x[18:]) + _tr3(x[9:18])),
        "t*": (make_t_star(cat.octonions), cat.octonions,
               lambda x: tuple(reversed(x[:4])) + tuple(reversed(x[4:]))),
        "t on J": (cat.realize("t", "J"), cat.J, lambda x: _t_hat(f, x)),
        "t on B": (cat.realize("t", "B"), cat.B,
                   lambda x: x[:2] + _t_hat(f, x[2:29]) + _t_hat(f, x[29:])),
    }


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("name", ["varpi", "binv", "theta", "t*", "t on J", "t on B"])
def test_map_matches_its_coordinate_formula(field, name):
    m, alg, formula = _cases(Catalog(field))[name]
    assert m.basis_tag == alg.basis_tag and m.dim == alg.dim
    rng = random.Random(f"{name}:{field}")
    for _ in range(5):
        x = alg.sample(rng).coords
        assert m.apply(x) == formula(x)


def test_quaternion_algebra_carries_a_map():
    field = Q()
    quat = CDAlgebra(field, (-1, -1))
    ident = quat.linmap(linalg.identity(4, field))
    assert ident.dim == 4 and ident.is_identity()
    bar = quat.linmap_of(quat.conj_raw)
    assert bar.dim == 4 and bar.order_divides_two()
    assert bar.fixed_space() == [quat.unit_coords]


def test_map_from_other_octonions_is_rejected():
    octonions = CDAlgebra(Q(), (-1, -1, 1))
    reflection = make_t(octonions, [-1, 0, 0, 0])
    assert is_aut_member(reflection, octonions)
    cat = Catalog(Q())
    with pytest.raises(CarrierMismatch):
        lift_c_to_j(reflection, cat.J)
    with pytest.raises(CarrierMismatch):
        is_aut_member(reflection, cat.octonions)


@pytest.mark.parametrize("matrix", [
    ((1, 0),),
    ((1, 0), (0,)),
    ((1, 0, 0), (0, 1, 0)),
])
def test_non_square_matrix_is_rejected(matrix):
    with pytest.raises(CarrierMismatch):
        LinMap(matrix, Fp(7), OCT, "cd:Fp:7:split:1")


def test_t_star_on_a_chain_base_raises():
    with pytest.raises(NoValidOrdering):
        make_t_star(CDAlgebra(Q(), (-1, -1, 1)))


def test_block_diag():
    f = Fp(7)
    got = linalg.block_diag((linalg.identity(1, f), ((2, 3), (4, 5))), f)
    assert got == ((1, 0, 0), (0, 2, 3), (0, 4, 5))
