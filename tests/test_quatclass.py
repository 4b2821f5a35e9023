import random
import time
from fractions import Fraction

import pytest

from brownalg.errors import AlgebraError, FactorizationTooLarge, MixedFields, ZeroArgument
from brownalg.fields import INFINITE, Fp, Kbar, Q, Qp, Rplace, is_prime
from brownalg.quatclass import (
    SPLIT,
    QuatPresentation,
    class_report,
    hilbert_places,
    hilbert_symbol,
    is_split,
    isotropic_ternary_search,
    quaternion_classes,
    smallest_nonresidue,
)


def test_hilbert_symbol_real():
    assert hilbert_symbol(-1, -1, Rplace()) == -1
    assert hilbert_symbol(1, -5, Rplace()) == 1
    assert hilbert_symbol(-3, 2, Rplace()) == 1


def test_hilbert_symbol_trivial_first_argument_square():
    for place in (Rplace(), Qp(2), Qp(3), Qp(5), Qp(7)):
        for b in (2, -3, 5, 50, Fraction(7, 3)):
            assert hilbert_symbol(1, b, place) == 1
            assert hilbert_symbol(4, b, place) == 1


def test_hilbert_symbol_2_5_at_5():
    assert hilbert_symbol(2, 5, Qp(5)) == -1


def test_hilbert_symbol_2_5_at_5_brute_force():
    """Oracle: z^2 = 2 x^2 + 5 y^2 has no primitive solution mod 5^3 (any
    5-adic zero would reduce to one), matching the symbol value -1."""
    mod = 5 ** 3
    squares = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    for x in range(mod):
        for y in range(mod):
            val = (2 * x * x + 5 * y * y) % mod
            for z in squares.get(val, ()):
                assert not (x % 5 or y % 5 or z % 5)


def test_hilbert_symbol_zero_rejected():
    with pytest.raises(ZeroArgument):
        hilbert_symbol(0, 3, Rplace())


@pytest.mark.parametrize("call", [
    lambda x: hilbert_symbol(x, 3, Qp(5)),
    lambda x: hilbert_places(x, 3),
    lambda x: hilbert_places(3, x),
    lambda x: QuatPresentation(x, 2),
], ids=["hilbert_symbol", "hilbert_places", "hilbert_places second", "QuatPresentation"])
def test_inexact_arguments_raise_mixed_fields(call):
    """A float is not a rational: 0.1 would be read as 3602879701896397/2^55."""
    for x in (0.1, 0.5, "1/2", None):
        with pytest.raises(MixedFields):
            call(x)


def test_int_and_fraction_arguments_agree():
    assert hilbert_symbol(Fraction(-1), Fraction(3), Qp(3)) == hilbert_symbol(-1, 3, Qp(3)) == -1
    assert hilbert_places(Fraction(10, 3), 7) == hilbert_places(30, 7)
    assert QuatPresentation(-1, 3) == QuatPresentation(Fraction(-1), Fraction(3))
    assert QuatPresentation(Fraction(1, 2), 2).a == Fraction(1, 2)


def test_hilbert_symmetry_and_bilinearity():
    rng = random.Random(0)
    places = [Rplace(), Qp(2), Qp(3), Qp(5), Qp(7), Qp(11)]
    vals = [-7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15]
    for _ in range(120):
        a, b, c = (rng.choice(vals) for _ in range(3))
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * 9, b, v) == hilbert_symbol(a, b, v)
        assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)


def test_hilbert_symbol_large_input_without_factoring():
    # 10^16 + 61 = 1 mod 5 is a 5-adic unit square class; trial division hung
    assert hilbert_symbol(10**16 + 61, 3, Qp(5)) == 1


def test_hilbert_symbol_square_class_invariance():
    rng = random.Random(7)
    for p in (2, 3, 5, 13):
        for _ in range(60):
            a, b, c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**4))
                       for _ in range(3))
            assert hilbert_symbol(a * c * c, b, Qp(p)) == hilbert_symbol(a, b, Qp(p))


def test_hilbert_symbol_two_adic_valuation_parity():
    # (2^alpha u, v)_2 = (-1)^(eps(u) eps(v) + alpha omega(v)); omega(3) = omega(5) = 1
    assert hilbert_symbol(2, 3, Qp(2)) == -1
    assert hilbert_symbol(8, 3, Qp(2)) == -1
    assert hilbert_symbol(16, 3, Qp(2)) == 1
    assert hilbert_symbol(12, 5, Qp(2)) == 1
    assert hilbert_symbol(Fraction(3, 32), 5, Qp(2)) == -1
    assert hilbert_symbol(Fraction(3, 4), 5, Qp(2)) == 1


def test_hilbert_product_formula():
    rng = random.Random(1)
    for _ in range(100):
        a = Fraction(rng.choice([x for x in range(-30, 31) if x]),
                     rng.randint(1, 12))
        b = Fraction(rng.choice([x for x in range(-30, 31) if x]),
                     rng.randint(1, 12))
        prod = 1
        for place in hilbert_places(a, b):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1


def test_is_split_basic():
    assert not is_split(QuatPresentation(-1, -1), Rplace())  # Hamilton quaternions
    assert is_split(QuatPresentation(1, -1), Rplace())
    assert is_split(QuatPresentation(-1, -1), Fp(7))
    assert is_split(QuatPresentation(-1, -1), Kbar())
    assert not is_split(QuatPresentation(-1, -1), Q())
    assert is_split(QuatPresentation(2, 3), Qp(7))


def test_is_split_minus1_p_three_mod_four():
    for p in (3, 7, 11, 19, 23):
        assert not is_split(QuatPresentation(-1, p), Q())
    for p in (5, 13, 17):
        assert is_split(QuatPresentation(-1, p), Q())


def test_is_split_large_prime_input_returns_quickly():
    # 10^16 + 61 = 2 mod 3 and 3 || 3, so (10^16 + 61, 3)_3 = (2/3) = -1
    start = time.perf_counter()
    assert not is_split(QuatPresentation(10**16 + 61, 3), Q())
    assert time.perf_counter() - start < 1.0
    assert hilbert_symbol(10**16 + 61, 3, Qp(3)) == -1


def test_hilbert_places_factors_beyond_trial_division():
    start = time.perf_counter()
    assert [str(v) for v in hilbert_places(10**12 + 39, 3)] == ["R", "Qp:2", "Qp:3", "Qp:1000000000039"]
    # two 32-bit primes: only Pollard rho separates them; even powers drop out
    p, q = 2**32 - 5, 2**32 - 17
    assert is_prime(p) and is_prime(q) and is_prime(10**12 + 39)
    places = hilbert_places(Fraction(7 * p * q, 1009**2), Fraction(-(1019**2) * 1013**3, 11))
    assert [str(v) for v in places] == ["R", "Qp:2", "Qp:7", "Qp:11", "Qp:1013", f"Qp:{q}", f"Qp:{p}"]
    assert time.perf_counter() - start < 1.0


def test_factorization_beyond_the_bound_raises_typed_error():
    big = (2**61 - 1) * (2**89 - 1)
    assert issubclass(FactorizationTooLarge, AlgebraError)
    with pytest.raises(FactorizationTooLarge):
        hilbert_places(Fraction(3, big), 5)
    with pytest.raises(FactorizationTooLarge):
        is_split(QuatPresentation(big, -1), Q())
    # the bound applies to what trial division leaves, not to the input size
    assert [str(v) for v in hilbert_places(2**101 * 3**80, 5)] == ["R", "Qp:2", "Qp:5"]


def test_is_split_fp_isotropy_oracle():
    """Over F_7 the ternary form <1,-a,-b> is always isotropic."""
    p = 7
    for a in range(1, p):
        for b in range(1, p):
            found = False
            for x in range(p):
                for y in range(p):
                    for z in range(p):
                        if (x, y, z) != (0, 0, 0) and (z * z - a * x * x - b * y * y) % p == 0:
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            assert found
            assert is_split(QuatPresentation(a, b), Fp(p))


def test_is_split_matches_small_height_search():
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 or b == 0:
                continue
            got = is_split(QuatPresentation(a, b), Q())
            oracle = isotropic_ternary_search(a, b, 60)
            assert got == oracle, (a, b)


def _classes(field, level, kind):
    return dict(class_report(field, level).kinds)[kind]


def test_quaternion_class_counts():
    """G2 has one involution class per class of quaternion algebra D."""
    assert _classes(Kbar(), "G2", "theta") == 1
    assert _classes(Fp(11), "G2", "theta") == 1
    assert _classes(Rplace(), "G2", "theta") == 2
    assert _classes(Qp(5), "G2", "theta") == 2
    assert _classes(Q(), "G2", "theta") is INFINITE


def test_table_presentations_read_their_class_at_their_place():
    """Each presentation of the table is its class at its own place: the
    split class reads +1 and each division class -1, and over Q the family
    (-1, p) is a division algebra for p = 3, 7 and 11.  The presentation
    (-p, -z) that reports once printed over Q_p is split for p = 3 mod 4."""
    for place in (Rplace(), Qp(2), Qp(3), Qp(5), Qp(7), Qp(11), Qp(13)):
        split, *division = quaternion_classes(place).presentations
        assert split == SPLIT and hilbert_symbol(*split, place) == 1
        assert len(division) == 1 and hilbert_symbol(*division[0], place) == -1
    for field in (Kbar(), Fp(7)):
        assert quaternion_classes(field).presentations == (SPLIT,)
        assert is_split(QuatPresentation(*SPLIT), field)
    table = quaternion_classes(Q())
    a, b = table.presentations[1]
    assert b == "p" and table.family == "p = 3 mod 4"
    assert is_split(QuatPresentation(*SPLIT), Q())
    for p in (3, 7, 11):
        assert not is_split(QuatPresentation(a, p), Q())
        z = smallest_nonresidue(p)
        assert hilbert_symbol(-p, -z, Qp(p)) == hilbert_symbol(-z, Fraction(-p, z), Qp(p)) == 1


def test_smallest_nonresidue():
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2
    assert smallest_nonresidue(13) == 2


def test_e6_report_totals():
    assert class_report(Kbar(), "E6").total == 4
    assert class_report(Fp(7), "E6").total == 4
    assert class_report(Rplace(), "E6").total == 6
    for p in (2, 3, 5, 7):
        assert class_report(Qp(p), "E6").total == 6
    assert class_report(Q(), "E6").total is INFINITE


def test_e6_report_kind_structure():
    for f in (Kbar(), Fp(7), Rplace(), Qp(5)):
        rep = class_report(f, "E6")
        kinds = dict(rep.kinds)
        assert kinds["sigma"] == 1 and kinds["dagger"] == 1
        assert kinds["theta"] == kinds["theta_dagger"] == _classes(f, "G2", "theta")
        assert rep.total == 2 * kinds["theta"] + 2


def test_e6_padic_division_representative():
    rep = class_report(Qp(5), "E6")
    assert "theta: D = (2, 5)" in rep.representatives
    assert "theta_dagger: D = (2, 5)" in rep.representatives
    rep7 = class_report(Qp(7), "E6")
    assert any("D = (3, 7)" in r for r in rep7.representatives)


def test_e6_q_report_lists_family():
    rep = class_report(Q(), "E6")
    assert dict(rep.kinds)["sigma"] == 1
    assert dict(rep.kinds)["dagger"] == 1
    assert dict(rep.kinds)["theta"] is INFINITE
    assert any("p = 3 mod 4" in r for r in rep.representatives)


def test_f4_report():
    assert _classes(Kbar(), "F4", "type_I") == 1
    assert _classes(Fp(7), "F4", "type_I") == 1
    assert _classes(Rplace(), "F4", "type_I") == 3
    assert _classes(Qp(5), "F4", "type_I") == 2
    assert _classes(Qp(2), "F4", "type_I") == 2
    assert _classes(Q(), "F4", "type_I") is INFINITE
    for f in (Kbar(), Fp(7), Rplace(), Qp(5), Qp(2), Q()):
        assert _classes(f, "F4", "type_II") == 1


def test_g2_report():
    assert class_report(Kbar(), "G2").total == 1
    assert class_report(Fp(7), "G2").total == 1
    assert class_report(Rplace(), "G2").total == 2
    assert class_report(Qp(5), "G2").total == 2
    assert class_report(Q(), "G2").total is INFINITE


def test_unknown_level_is_refused():
    with pytest.raises(ValueError, match="unknown level"):
        class_report(Q(), "E7")


def test_report_json_round_trip():
    import json

    for f in (Fp(7), Rplace(), Q()):
        rep = class_report(f, "E6")
        d = json.loads(rep.to_json())
        assert d["field"] == str(f)
        assert d["classes"]["sigma"] == 1
        if f == Q():
            assert d["total"] == "infinite"
        else:
            assert d["total"] == rep.total


REPORT_FIELDS = (Kbar(), Fp(7), Rplace(), Qp(2), Qp(3), Qp(5), Qp(7), Q())


def test_every_printed_representative_realizes():
    """Every row of the G2, F4 and E6 reports over the fields above is
    either a descriptor that `Catalog.realize_involution` realizes as an
    order-2 map (on J at G2 and F4, on B at E6; F_p rows over F_7, the
    others over Q) or a division class's presentation "D = (a, b)" from
    the table; no report prints a row twice.  Theta (t) fixes 32
    dimensions of B and sigma (s) 24."""
    from brownalg.involutions import Catalog, fixed_subalgebra

    catalogs = {"Fp": Catalog(Fp(7)), "Q": Catalog(Q())}
    for field in REPORT_FIELDS:
        cat = catalogs["Fp" if field.kind == "Fp" else "Q"]
        division = [f"D = ({a}, {b})" for a, b in quaternion_classes(field).presentations[1:]]
        for level in ("G2", "F4", "E6"):
            reps = class_report(field, level).representatives
            assert len(set(reps)) == len(reps), reps
            for row in reps:
                text = row.partition(": ")[2]
                if text.startswith("D = "):
                    assert any(text.startswith(d) for d in division), row
                else:
                    cat.realize_involution(text, "B" if level == "E6" else "J")
    cat = catalogs["Fp"]
    e6 = dict(r.split(": ") for r in class_report(Fp(7), "E6").representatives)
    dims = {kind: fixed_subalgebra(cat.realize_involution(e6[kind], "B"), cat.B).dimension
            for kind in ("theta", "sigma")}
    assert dims == {"theta": 32, "sigma": 24}
