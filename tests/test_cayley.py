import random

import pytest

from brownalg.cayley import CDAlgebra, CompElem, bilin, conj, find_skew_unit, mul, qnorm
from brownalg.errors import AlgebraMismatch
from brownalg.fields import Fp, Q, scalar


def split_quat(field):
    return CDAlgebra(field, split_base=True)


def oct_split(field):
    return CDAlgebra.split_octonions(field)


def test_split_quaternion_matrix_product():
    # [[1,2],[3,4]] . [[0,1],[1,0]] = [[2,1],[4,3]] in basis (E11,E12,E21,E22)
    a = split_quat(Fp(7))
    x = a.element([1, 2, 3, 4])
    y = a.element([0, 1, 1, 0])
    assert mul(x, y).coords == (2, 1, 4, 3)


def test_unit_law_random():
    rng = random.Random(0)
    for alg in (split_quat(Fp(7)), oct_split(Fp(7)), CDAlgebra(Q(), (1, 1, 1))):
        e = alg.unit()
        for _ in range(10):
            x = alg.sample(rng)
            assert mul(e, x).coords == x.coords
            assert mul(x, e).coords == x.coords


def test_conjugation_displayed_formula():
    # conj([[1,2],[3,4]]) = [[4,-2],[-3,1]]
    a = split_quat(Q())
    x = a.element([1, 2, 3, 4])
    assert conj(x).coords == a.element([4, -2, -3, 1]).coords


def test_conj_unit_fixed():
    for alg in (split_quat(Q()), oct_split(Q()), CDAlgebra(Q(), (1,)), CDAlgebra(Q(), ())):
        assert conj(alg.unit()).coords == alg.unit().coords


def test_x_times_conj_x_is_norm():
    a = split_quat(Fp(7))
    x = a.element([1, 2, 3, 4])
    n = qnorm(x)
    assert n == scalar(Fp(7), 5)  # det = 4 - 6 = -2 = 5 mod 7
    assert mul(x, conj(x)).coords == a.unit().scale(n.value).coords


def test_qnorm_determinant_and_unit():
    assert qnorm(split_quat(Fp(7)).element([1, 2, 3, 4])) == scalar(Fp(7), 5)
    for alg in (split_quat(Q()), oct_split(Q())):
        assert qnorm(alg.unit()) == scalar(Q(), 1)


def test_octonion_doubling_unit_product():
    # (e,0).(0,e) = (0,e)
    c = oct_split(Q())
    e = split_quat(Q()).unit().coords
    zero4 = (0,) * 4
    x = c.element(e + zero4)
    y = c.element(zero4 + e)
    assert mul(x, y).coords == c.element(zero4 + e).coords


def test_split_octonion_isotropic():
    c = oct_split(Q())
    e = split_quat(Q()).unit().coords
    x = c.element(e + e)
    assert qnorm(x) == scalar(Q(), 0)


def test_bilin_values():
    c = oct_split(Q())
    e = c.unit()
    assert bilin(e, e) == scalar(Q(), 2)
    assert bilin(c.element([1, 2, 3, 4, 5, 6, 7, 8]), c.zero()) == scalar(Q(), 0)


def test_gram_rank_full():
    for alg in (
        oct_split(Fp(7)),
        oct_split(Fp(11)),
        oct_split(Q()),
        CDAlgebra(Q(), (1, 1, 1)),
        CDAlgebra(Fp(7), (1, 2, 3)),
    ):
        assert alg.gram_rank() == alg.dim


def test_composition_law_sampled():
    rng = random.Random(1)
    for alg in (
        CDAlgebra(Q(), (1,)),
        split_quat(Fp(7)),
        CDAlgebra(Fp(11), (1, 2)),
        oct_split(Fp(7)),
        oct_split(Q()),
        CDAlgebra(Q(), (1, 1, 1)),
    ):
        for _ in range(60):
            x, y = alg.sample(rng, 4), alg.sample(rng, 4)
            assert qnorm(mul(x, y)) == qnorm(x) * qnorm(y)


def test_conj_antihomomorphism():
    rng = random.Random(2)
    for alg in (oct_split(Fp(7)), CDAlgebra(Q(), (1, 1, 1))):
        for _ in range(40):
            x, y = alg.sample(rng, 4), alg.sample(rng, 4)
            assert conj(mul(x, y)).coords == mul(conj(y), conj(x)).coords
            assert conj(conj(x)).coords == x.coords


def test_x_plus_conj_in_span_of_unit():
    rng = random.Random(3)
    alg = oct_split(Fp(11))
    f = alg.field
    for _ in range(20):
        x = alg.sample(rng)
        s = x + conj(x)
        t = s.coords[0]
        assert s.coords == alg.unit().scale(t).coords


def test_alternativity_dim8_and_associativity_failure():
    rng = random.Random(4)
    alg = oct_split(Fp(7))
    for _ in range(40):
        x, y = alg.sample(rng), alg.sample(rng)
        assert mul(x, mul(x, y)).coords == mul(mul(x, x), y).coords
        assert mul(mul(y, x), x).coords == mul(y, mul(x, x)).coords
    # a witnessed non-associative triple
    b = alg.basis()
    found = False
    for x, y, z in [(b[1], b[5], b[6]), (b[1], b[4], b[2]), (b[2], b[5], b[1])]:
        if mul(mul(x, y), z).coords != mul(x, mul(y, z)).coords:
            found = True
            break
    assert found


def test_quaternions_associative():
    rng = random.Random(5)
    for alg in (split_quat(Fp(7)), CDAlgebra(Q(), (1, 2))):
        for _ in range(30):
            x, y, z = (alg.sample(rng, 3) for _ in range(3))
            assert mul(mul(x, y), z).coords == mul(x, mul(y, z)).coords


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatch):
        mul(oct_split(Q()).unit(), CDAlgebra(Q(), (1, 1, 1)).unit())


def test_descriptor_round_trip():
    for alg in (oct_split(Fp(7)), CDAlgebra(Fp(7), (1, 1, 1)), CDAlgebra(Q(), (1, 2))):
        again = CDAlgebra.parse(alg.basis_tag)
        assert again == alg
    assert CDAlgebra.parse("cd:Fp:7:1,1,1").dim == 8
    assert CDAlgebra.parse("cd:Q:split:1") == oct_split(Q())


def test_element_json_round_trip():
    alg = oct_split(Q())
    x = alg.element([1, -2, 3, 0, 5, 0, 0, 1])
    assert CompElem.from_json(alg, x.to_json()).coords == x.coords


def test_base_algebra_of_split_octonions():
    c = oct_split(Fp(7))
    d = c.base_algebra()
    assert d.dim == 4 and d.split_base


def test_find_skew_unit():
    c = oct_split(Q())
    v = find_skew_unit(c)
    f = c.field
    assert c.qnorm_raw(v.coords) == f.neg(f.one())
    assert not c.bilin_raw(v.coords, c.unit_coords)
    assert mul(v, v).coords == c.unit().coords
    assert conj(v).coords == (-v).coords


def test_nondegenerate_rejects_zero_kappa():
    with pytest.raises(ValueError):
        CDAlgebra(Q(), (0,))
