"""The Albert cross table and the Brown table, built in ints from the integer
forms of the Jordan table, the Gram matrix and zeta, against their
derivations in field values: the same entries in the same order, the same
integer form and the same dagger picks, with no `Fraction` arithmetic before
the one final conversion."""

from fractions import Fraction

import pytest

from brownalg import kernels, linmaps
from brownalg.albert import DIM, hermitian, tits
from brownalg.brown import BDIM, BrownAlgebra
from brownalg.cayley import CDAlgebra
from brownalg.fields import Fp, Q
from brownalg.kernels import MulTable


def _ref_cross_entries(alg):
    """C_ijk = 2 T_ijk - t_i d_jk - t_j d_ik + (t_i t_j - G_ij) e_k summed in
    field values, keyed in the order of the Jordan entries and then of the
    pairs (i, j) row by row."""
    f = alg.field
    t, e, G = alg.trvec, alg.unit_coords, alg.gram
    two = f.from_int(2)
    coeffs = {}

    def add(i, j, k, c):
        coeffs[i, j, k] = f.add(coeffs.get((i, j, k), f.zero()), c)

    for i, j, k, c in alg.table.entries:
        add(i, j, k, f.mul(two, c))
    for i in range(DIM):
        for j in range(DIM):
            if t[i]:
                add(i, j, j, f.neg(t[i]))
            if t[j]:
                add(i, j, i, f.neg(t[j]))
            s = f.sub(f.mul(t[i], t[j]), G[i][j])
            if s:
                for k in range(DIM):
                    if e[k]:
                        add(i, j, k, f.mul(s, e[k]))
    return tuple((i, j, k, c) for (i, j, k), c in coeffs.items() if c)


def _ref_brown_entries(brown, cross_entries):
    """The Brown product's entries in field values from the cross table's
    entries, the Gram matrix and zeta."""
    f, z, G = brown.field, brown.zeta, brown.jalg.gram
    one = f.one()
    J0, L0 = 2, 2 + DIM
    entries = [(0, 0, 0, one), (1, 1, 1, one)]
    for i in range(DIM):
        for j in range(DIM):
            if G[i][j]:
                zg = f.mul(z, G[i][j])
                entries += [(J0 + i, L0 + j, 0, zg), (L0 + j, J0 + i, 1, zg)]
    for k in range(DIM):
        entries += [
            (0, J0 + k, J0 + k, one), (J0 + k, 1, J0 + k, one),
            (1, L0 + k, L0 + k, one), (L0 + k, 0, L0 + k, one),
        ]
    for i, j, k, c in cross_entries:
        entries.append((L0 + i, L0 + j, J0 + k, f.mul(z, c)))
        entries.append((J0 + i, J0 + j, L0 + k, c))
    return tuple(entries)


MODELS = {
    "her-gamma-Q": lambda: hermitian(CDAlgebra.split_octonions(Q()), gamma=(1, -1, Fraction(3, 2))),
    "her-general-Q": lambda: hermitian(
        CDAlgebra(Q(), kappas=(Fraction(-2, 3), Fraction(5, 7), Fraction(3, 2))),
        gamma=(1, Fraction(2, 5), Fraction(-3, 4))),
    "tits-3/2-Q": lambda: tits(Q(), Fraction(3, 2)),
    "her-F7": lambda: hermitian(CDAlgebra.split_octonions(Fp(7))),
    "tits-F7": lambda: tits(Fp(7)),
    "her-gamma-F11": lambda: hermitian(CDAlgebra.split_octonions(Fp(11)), gamma=(1, -1, 3)),
    "tits-F11": lambda: tits(Fp(11), 3),
}


def _same_int_form(table):
    """The integer form a table carries equals the one `int_table` computes
    from its entries."""
    return table.int_table() == MulTable(table.n, table.entries).int_table()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_cross_table_matches_the_field_value_derivation(model):
    alg = MODELS[model]()
    if model == "her-gamma-Q":
        assert alg.gram_den > 1
    ref = _ref_cross_entries(alg)
    table = alg.cross_table()
    assert table.entries == ref
    assert _same_int_form(table)
    # the dagger's picks read the cross table's integer form in its order
    twin = MODELS[model]()
    twin._cross_table = MulTable(DIM, ref)
    assert linmaps._dagger_plan.__wrapped__(alg) == linmaps._dagger_plan.__wrapped__(twin)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("zeta", [1, Fraction(3, 2)])
def test_brown_table_matches_the_field_value_derivation(model, zeta):
    alg = MODELS[model]()
    if zeta != 1 and alg.field != Q():
        zeta = 3
    brown = BrownAlgebra(alg, zeta)
    table = brown.table
    assert table.n == BDIM
    assert table.entries == _ref_brown_entries(brown, _ref_cross_entries(alg))
    assert _same_int_form(table)


def test_table_builders_make_no_fraction_before_their_one_conversion(monkeypatch):
    """Over Q the cross and Brown tables do no Fraction arithmetic and make
    their values with one `from_ints` call each."""
    alg = MODELS["her-gamma-Q"]()
    alg.table.int_table()
    brown = BrownAlgebra(alg, Fraction(3, 2))
    calls = []
    real = kernels.from_ints

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in a table builder")

    monkeypatch.setattr(kernels, "from_ints", counted)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__bool__", "__eq__"):
        monkeypatch.setattr(Fraction, op, forbidden)
    cross = alg.cross_table()
    assert len(calls) == 1
    table = brown.table
    assert len(calls) == 2
    monkeypatch.undo()
    assert cross.entries == _ref_cross_entries(alg)
    assert len(table.entries) == 2 + 2 * len(alg.gram_int) + 4 * DIM + 2 * len(cross.entries)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_commutative_is_read_off_every_table_of_the_tower(field):
    """`MulTable.commutative`, read off the integer form: the composition
    algebras of dimension 1 and 2 are commutative, and the split
    quaternions, CD(-1, -1) and the split octonions are not; the Jordan and
    cross tables of the Hermitian and Tits models are, and the Brown tables
    at zeta = 1 and 2 are not.  An opposite table reads as its table."""
    her, tit = hermitian(CDAlgebra.split_octonions(field)), tits(field)
    commutative = [CDAlgebra(field).table, CDAlgebra(field, (1,)).table,
                   CDAlgebra(field, (-1,)).table, her.table, her.cross_table(), tit.table,
                   tit.cross_table()]
    other = [CDAlgebra(field, split_base=True).table, CDAlgebra(field, (-1, -1)).table,
             CDAlgebra.split_octonions(field).table, BrownAlgebra(her, 1).table,
             BrownAlgebra(her, 2).table]
    assert [t.commutative for t in commutative] == [True] * len(commutative)
    assert [t.commutative for t in other] == [False] * len(other)
    assert all(t.opposite().commutative is t.commutative for t in commutative + other)


def test_multable_from_ints_drops_zeros_and_keeps_lowest_terms():
    q = Q()
    table = MulTable.from_ints(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1)], [4, 0, -6], 8, q)
    assert table.entries == ((0, 0, 0, Fraction(1, 2)), (1, 0, 1, Fraction(-3, 4)))
    assert table.int_table() == (4, [[(0, 0, 2)], [(0, 1, -3)]])
    assert _same_int_form(table)
    f7 = Fp(7)
    table = MulTable.from_ints(2, [(0, 0, 0), (0, 1, 1), (1, 1, 0)], [9, 14, -1], 1, f7)
    assert table.entries == ((0, 0, 0, 2), (1, 1, 0, 6))
    assert _same_int_form(table)
    assert table.int_entries() == [(0, 0, 0, 2), (1, 1, 0, 6)]
