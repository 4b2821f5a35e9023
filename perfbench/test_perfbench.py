"""Tests of the benchmark's own helpers:  python3 -m pytest perfbench"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_children_and_nests_within_one_layer():
    # fixed_subalgebra [0, 10] -> nullspace [1, 6] -> rref [2, 5] -> mod_rref [3, 4];
    # fixed_subalgebra -> bmul_raw [7, 9]
    names = ["involutions.fixed_subalgebra", "linalg.nullspace", "linalg.rref",
             "kernels.mod_rref", "brown.BrownAlgebra.bmul_raw"]
    starts = [0.0, 1.0, 2.0, 3.0, 7.0]
    ends = [10.0, 6.0, 5.0, 4.0, 9.0]
    parents = [-1, 0, 1, 2, 0]
    assert tracer.self_times(starts, ends, parents) == [3.0, 2.0, 2.0, 1.0, 2.0]

    per_name, per_layer, root_s = tracer.summarize(names, range(5), starts, ends, parents)
    assert per_name["linalg.rref"] == (1, 2.0)
    # nullspace and rref are both linalg: the layer counts the time once
    assert per_layer["linalg"] == (2, 4.0)
    assert per_layer["involutions"] == (1, 3.0)
    assert per_layer["kernels"] == (1, 1.0)
    assert per_layer["brown"] == (1, 2.0)
    assert root_s == 10.0
    assert sum(s for _, s in per_layer.values()) == root_s


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50), (99, 75), (100, 90), (199, 90),
    (200, 95), (1000, 99), (9999, 99), (10000, 99.9),
])
def test_highest_reportable_percentile_has_ten_samples_beyond_it(n, expected):
    values = [float(i) for i in range(n)]
    tail = run.tail_percentile(values)
    assert (tail[0] if tail else None) == expected
    if tail:
        beyond = sum(1 for v in values if v > tail[1])
        assert beyond >= 10


def test_traced_pass_records_nested_spans_and_removes_every_wrapper():
    workloads.import_program()
    import brownalg.fields
    import brownalg.linalg
    import brownalg.linmaps

    original_mat_mul = brownalg.linalg.mat_mul
    entries = tracer.entry_points()
    rec = tracer.SpanRecorder()
    with tracer.installed(tracer.function_patches(entries, rec.make_wrapper)):
        # the name bound by `from .linalg import mat_mul` is wrapped too
        assert brownalg.linmaps.mat_mul is not original_mat_mul
        assert brownalg.linmaps.mat_mul is brownalg.linalg.mat_mul
        basis = brownalg.linalg.nullspace(((1, 2, 3), (2, 4, 6)), brownalg.fields.Fp(7))
    assert len(basis) == 2
    rows = rec.rows()
    by_name = {r[0]: i for i, r in enumerate(rows)}
    assert rows[by_name["linalg.rref"]][3] == by_name["linalg.nullspace"]
    assert rows[by_name["kernels.mod_rref"]][3] == by_name["linalg.rref"]

    assert tracer.leftover_wrappers() == []
    assert brownalg.linalg.mat_mul is original_mat_mul
    assert brownalg.linmaps.mat_mul is original_mat_mul


def test_count_pass_counts_fraction_ops_and_removes_its_wrappers():
    workloads.import_program()
    import brownalg.fields
    import brownalg.linalg

    counters = tracer.Counters()
    q = brownalg.fields.Q()
    a = ((Fraction(1, 2), Fraction(0)), (Fraction(3), Fraction(1, 5)))
    with tracer.installed(counters.patches(tracer.entry_points())):
        brownalg.linalg.mat_mul(a, a, q)
        brownalg.linalg.rref(a, q)
    assert counters.fraction_ops > 0
    assert counters.mat_mul_macs == 8
    assert counters.mat_mul_nonzero == 3 and counters.mat_mul_entries == 4
    assert counters.rref_cells == 4
    assert tracer.leftover_wrappers() == []


def test_independent_kac_count_matches_enumeration():
    workloads.import_program()
    import brownalg.kac as kac

    assert workloads.count_kac((1, 1, 2, 3, 2, 2, 1), 2, gcd_one=True) == 6
    for m in range(1, 9):
        assert len(kac.enumerate_solutions(kac.E6_EXTENDED, m)) == \
            workloads.count_kac((1, 1, 2, 3, 2, 2, 1), m, gcd_one=True)
        assert len(kac.enumerate_solutions(kac.E6_TWISTED, m, folded=True)) == \
            workloads.count_kac((1, 2, 3, 4, 2), m, gcd_one=False)


def test_valuation_hilbert_symbol_matches_program_on_small_inputs():
    workloads.import_program()
    import brownalg.fields as fl
    import brownalg.quatclass as qc

    values = [Fraction(n, d) for n in (-12, -7, -3, -1, 1, 2, 5, 18) for d in (1, 3, 4, 10)]
    for a in values:
        for b in values[::3]:
            assert qc.hilbert_symbol(a, b, fl.Rplace()) == workloads.reference_hilbert(a, b, "R")
            for p in (2, 3, 5, 7):
                assert qc.hilbert_symbol(a, b, fl.Qp(p)) == workloads.reference_hilbert(a, b, "Qp", p)


def test_time_limit_interrupts_a_long_call():
    with pytest.raises(workloads.CallTimeout):
        with workloads.time_limit(0.05):
            while True:
                pass


def test_host_speed_factor_scales_wall_time_to_reference_speed():
    speed = run.HostSpeed()
    # probes evenly spaced in CPU time: half ran at reference speed, half at half speed
    speed.durations = [run.PROBE_REF_S, 2 * run.PROBE_REF_S]
    assert speed.factor_since(0) == pytest.approx(0.75)
    assert speed.factor_since(1) == pytest.approx(0.5)
    assert speed.spent_since(1) == pytest.approx(2 * run.PROBE_REF_S)


def test_pass_charges_a_call_over_its_limit_the_limit_and_counts_it_failed():
    def over_limit():
        raise workloads.CallTimeout(0.5)

    tasks = [workloads.Task("ok", lambda: 1, lambda out: None),
             workloads.Task("slow", over_limit, lambda out: None),
             workloads.Task("wrong", lambda: 2, lambda out: "wrong output")]
    with run.HostSpeed() as speed:
        ref_s, results = run.run_pass(tasks, speed)
    assert ref_s >= 0.5
    tally = run.Tally()
    tally.add(results)
    assert (tally.attempted, tally.failed, tally.over_limit) == (3, 2, 1)
    assert not tally.correct
