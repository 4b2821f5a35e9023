"""`verify.run_suite` spreads the checks over forked workers fed from one
pipe; its report is the sequential one, in suite order, and no worker
outlives it."""

import errno
import os
import threading
import time

import pytest

from brownalg import verify
from brownalg.errors import InternalError
from brownalg.fields import FieldSpec, Fp

SAMPLES = 5


def _sequential(monkeypatch, name, field):
    with monkeypatch.context() as m:
        m.setattr(verify, "_workers", lambda n: 1)
        return verify.run_suite(name, field, 0, SAMPLES)


def _counting_forks(monkeypatch):
    """Patch os.fork to count the forks made by this process."""
    forks, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks


def _refuse_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("field", ["Fp:7", "Q"])
def test_checks_of_all_give_the_same_results_in_reverse_order(monkeypatch, field):
    """The premise of the parallel runner: on one shared context, the checks
    of `all` run backwards give the verdicts and details of the forward
    sequential run."""
    f = FieldSpec.parse(field)
    forward = _sequential(monkeypatch, "all", f)
    ctx = verify.Ctx(f, 0, SAMPLES)
    checks = [(suite, label, fn) for suite, group in verify.SUITES.items() for label, fn in group]
    backward = [verify.CheckResult(suite, label, *verify._outcome(fn, ctx))
                for suite, label, fn in reversed(checks)]
    assert backward[::-1] == forward
    assert all(r.ok for r in forward)


@pytest.mark.parametrize("field, workers", [("Fp:7", None), ("Fp:11", None), ("Q", None),
                                            ("Fp:7", 5)])
def test_forked_run_equals_the_sequential_run(monkeypatch, field, workers):
    """`all` with one worker equals the run on every CPU (workers=None) and a
    run with more workers than this host has CPUs."""
    f = FieldSpec.parse(field)
    want = _sequential(monkeypatch, "all", f)
    if workers is not None:
        monkeypatch.setattr(verify, "_workers", lambda n: workers)
    expected_forks = verify._workers(len(want)) - 1
    forks = _counting_forks(monkeypatch)
    assert verify.run_suite("all", f, 0, SAMPLES) == want
    assert len(forks) == expected_forks


def test_each_suite_equals_its_slice_of_all():
    field = Fp(7)
    everything = verify.run_suite("all", field, 0, SAMPLES)
    start = 0
    for name, checks in verify.SUITES.items():
        assert verify.run_suite(name, field, 0, SAMPLES) == everything[start:start + len(checks)]
        start += len(checks)
    assert start == len(everything)


def test_unexpected_exception_propagates_and_leaves_no_child(monkeypatch):
    def boom(ctx):
        raise RuntimeError("boom from a check")

    monkeypatch.setattr(verify, "_workers", lambda n: 3)
    checks = list(verify.COMPOSITION_CHECKS)
    checks[2] = (checks[2][0], boom)
    monkeypatch.setitem(verify.SUITES, "composition", tuple(checks))
    with pytest.raises(RuntimeError, match="^boom from a check$"):
        verify.run_suite("composition", Fp(7), 0, SAMPLES)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_check_of_a_worker_that_died_is_run_again_in_the_parent(monkeypatch, tmp_path):
    """Each check takes 20 ms in the parent and kills any child that takes
    it, after leaving a marker: every check is then run once by the parent
    and passes."""
    parent, ran = os.getpid(), []

    def dies_in_a_child(ctx):
        if os.getpid() != parent:
            (tmp_path / str(os.getpid())).touch()
            os._exit(3)
        ran.append(1)
        time.sleep(0.02)

    labels = [label for label, _ in verify.COMPOSITION_CHECKS]
    monkeypatch.setitem(verify.SUITES, "composition",
                        tuple((label, dies_in_a_child) for label in labels))
    monkeypatch.setattr(verify, "_workers", lambda n: 3)
    got = verify.run_suite("composition", Fp(7), 0, SAMPLES)
    assert got == [verify.CheckResult("composition", label, True) for label in labels]
    assert len(ran) == len(labels)
    assert 1 <= len(list(tmp_path.iterdir())) <= 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        monkeypatch.setattr(os, "fork", _refuse_fork)
        assert verify._workers(27) == 1
        got = verify.run_suite("composition", Fp(7), 0, SAMPLES)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert [r.ok for r in got] == [True] * len(verify.COMPOSITION_CHECKS)


def test_failed_fork_leaves_the_share_to_the_others(monkeypatch):
    want = _sequential(monkeypatch, "composition", Fp(7))

    def no_process(*_):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(verify, "_workers", lambda n: 3)
    monkeypatch.setattr(os, "fork", no_process)
    assert verify.run_suite("composition", Fp(7), 0, SAMPLES) == want


def test_more_than_255_checks_is_an_internal_error(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "composition", verify.COMPOSITION_CHECKS * 52)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    with pytest.raises(InternalError, match="260 checks"):
        verify.run_suite("composition", Fp(7), 0, SAMPLES)


def test_workers_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False)
    assert [verify._workers(n) for n in (27, 3, 1)] == [4, 3, 1]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify._workers(27) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._workers(27) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delattr(os, "fork")
    assert verify._workers(27) == 1
