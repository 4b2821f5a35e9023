"""The linear laws of `verify` are decided on the maps, not at samples: a
structure table broken in one entry fails its check at --samples 1 under any
seed, with the check's own message."""

import pytest

from brownalg import verify
from brownalg.fields import FieldSpec, Fp, Q
from brownalg.kernels import MulTable

SEEDS = (0, 1)


def _doubled_entry(alg, table, wanted):
    """`table` with the coefficient of its first entry (i, j, k, c) with
    wanted(i, j) doubled."""
    entries = list(table.entries)
    n = next(n for n, (i, j, *_) in enumerate(entries) if wanted(i, j))
    i, j, k, c = entries[n]
    entries[n] = (i, j, k, alg.field.add(c, c))
    return MulTable(table.n, entries)


def _doubled_unit_entry(alg, table):
    """`table` with the coefficient of its first entry (i, j, k, c) at a unit
    coordinate i doubled, so that 1.e_j changes in coordinate k."""
    return _doubled_entry(alg, table, lambda i, j: alg.unit_coords[i])


def _doubled_off_unit_entry(alg, table):
    """`table` with the coefficient of its first entry (i, j, k, c) with
    i != j and neither i nor j a unit coordinate doubled."""
    u = alg.unit_coords
    return _doubled_entry(alg, table, lambda i, j: i != j and not (u[i] or u[j]))


def _draw_nothing(monkeypatch):
    """Make every sampled vector raise, so a check that passes or fails
    under it has drawn no point."""
    def forbidden(*args):
        raise AssertionError("a sample point was drawn")

    monkeypatch.setattr(FieldSpec, "sample_vector", forbidden)


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


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_jordan_unit_entry_fails_the_unit_law(field, seed, monkeypatch):
    ctx = _ctx(field, seed)
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


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_brown_unit_entry_fails_the_unit_law(field, seed, monkeypatch):
    ctx = _ctx(field, seed)
    verify.check_brown_unit_inv(ctx)
    B = ctx.cat.B
    monkeypatch.setattr(B, "table", _doubled_unit_entry(B, B.table))
    with pytest.raises(verify.CheckFailure, match="Brown unit law fails"):
        verify.check_brown_unit_inv(ctx)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_octonion_entry_fails_the_conjugation_law(field, seed, monkeypatch):
    """conj(e_i e_j) = conj(e_j) conj(e_i) breaks when the coefficient of
    e_i e_j is doubled and that of e_j e_i is not; the law is certified on
    basis pairs, and the unit law and involutivity still hold."""
    ctx = _ctx(field, seed)
    _draw_nothing(monkeypatch)
    verify.check_conj_antihom(ctx)
    o = ctx.cat.octonions
    monkeypatch.setattr(o, "table", _doubled_off_unit_entry(o, o.table))
    assert verify._unit_law_holds(o)
    with pytest.raises(verify.CheckFailure, match=r"conj\(xy\) != conj\(y\)conj\(x\) in cd:"):
        verify.check_conj_antihom(ctx)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_brown_block_entry_fails_the_involution_law(field, seed, monkeypatch):
    """A doubled entry with both factors in the J and L blocks (coordinates
    2 to 55) leaves the unit law intact and breaks binv(xy) = binv(y) binv(x),
    certified on basis pairs."""
    ctx = _ctx(field, seed)
    _draw_nothing(monkeypatch)
    verify.check_brown_unit_inv(ctx)
    B = ctx.cat.B
    monkeypatch.setattr(B, "table", _doubled_off_unit_entry(B, B.table))
    assert verify._unit_law_holds(B)
    with pytest.raises(verify.CheckFailure, match="binv is not an anti-homomorphism"):
        verify.check_brown_unit_inv(ctx)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_changed_t_lift_fails_the_brown_product_law(field, seed, monkeypatch):
    """The catalog's lift of t on B with its last diagonal entry raised by
    one is no automorphism of B; the check reads t from the catalog."""
    ctx = _ctx(field, seed)
    verify.check_brown_lifts(ctx)
    B, f = ctx.cat.B, field
    changed = [list(row) for row in ctx.cat.realize("t", "B").matrix]
    changed[-1][-1] = f.add(changed[-1][-1], f.one())
    monkeypatch.setitem(ctx.cat._maps, ("t", "B"), B.linmap(changed))
    with pytest.raises(verify.CheckFailure, match="lifted map does not preserve the Brown product"):
        verify.check_brown_lifts(ctx)
