"""The linear laws of `verify` are decided on the maps, not at samples: a
structure table broken in one entry fails its check at --samples 1 under any
seed, with the check's own message."""

import pytest

from brownalg import verify
from brownalg.fields import Fp, Q
from brownalg.kernels import MulTable

SEEDS = (0, 1)


def _doubled_unit_entry(alg, table):
    """`table` with the coefficient of its first entry (i, j, k, c) at a unit
    coordinate i doubled, so that 1.e_j changes in coordinate k."""
    entries = list(table.entries)
    n = next(n for n, (i, *_) in enumerate(entries) if alg.unit_coords[i])
    i, j, k, c = entries[n]
    entries[n] = (i, j, k, alg.field.add(c, c))
    return MulTable(table.n, entries)


def _ctx(field, seed):
    return verify.Ctx(field, seed, 1)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_octonion_unit_entry_fails_the_unit_law(field, seed, monkeypatch):
    ctx = _ctx(field, seed)
    verify.check_unit_law(ctx)
    o = ctx.cat.octonions
    monkeypatch.setattr(o, "table", _doubled_unit_entry(o, o.table))
    with pytest.raises(verify.CheckFailure, match="unit law fails in cd:"):
        verify.check_unit_law(ctx)


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_conjugation_entry_fails_involutivity(seed, monkeypatch):
    """conj with one coordinate scaled by 2 squares to 4 there, not 1."""
    ctx = _ctx(Fp(7), seed)
    verify.check_conj_antihom(ctx)
    o = ctx.cat.octonions
    conj = list(o._conj)
    k, c = conj[5]
    conj[5] = (k, 2 * c % 7)
    monkeypatch.setattr(o, "_conj", tuple(conj))
    with pytest.raises(verify.CheckFailure, match="conj is not involutive"):
        verify.check_conj_antihom(ctx)


@pytest.mark.parametrize("seed", SEEDS)
def test_jordan_unit_entry_fails_the_unit_law(seed, monkeypatch):
    ctx = _ctx(Fp(7), seed)
    verify.check_jordan_unit_comm(ctx)
    J = ctx.cat.J
    monkeypatch.setattr(J, "table", _doubled_unit_entry(J, J.table))
    with pytest.raises(verify.CheckFailure, match="unit law fails"):
        verify.check_jordan_unit_comm(ctx)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_asymmetric_jordan_entry_fails_commutativity(field, seed, monkeypatch):
    """An entry e_3.e_5 -> e_7 with no e_5.e_3 partner leaves the unit law
    (coordinates 0-2) intact and breaks commutativity only."""
    ctx = _ctx(field, seed)
    J = ctx.cat.J
    extra = MulTable(J.dim, J.table.entries + ((3, 5, 7, field.one()),))
    monkeypatch.setattr(J, "table", extra)
    assert verify._unit_law_holds(J)
    with pytest.raises(verify.CheckFailure, match="commutativity fails"):
        verify.check_jordan_unit_comm(ctx)


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_unit_entry_fails_the_sharp_unit_law(seed, monkeypatch):
    ctx = _ctx(Fp(7), seed)
    verify.check_sharp_axioms(ctx)
    J = ctx.cat.J
    monkeypatch.setattr(J, "_cross_table", _doubled_unit_entry(J, J.cross_table()))
    with pytest.raises(verify.CheckFailure, match=r"1 # x != Tr\(x\) 1 - x: her:"):
        verify.check_sharp_axioms(ctx)


@pytest.mark.parametrize("seed", SEEDS)
def test_brown_unit_entry_fails_the_unit_law(seed, monkeypatch):
    ctx = _ctx(Fp(7), seed)
    verify.check_brown_unit_inv(ctx)
    B = ctx.cat.B
    monkeypatch.setattr(B, "table", _doubled_unit_entry(B, B.table))
    with pytest.raises(verify.CheckFailure, match="Brown unit law fails"):
        verify.check_brown_unit_inv(ctx)
