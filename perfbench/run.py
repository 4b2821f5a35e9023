"""Benchmark for brownalg, driven from outside through its public functions.

    python3 perfbench/run.py --workload catalog-q --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Load is a closed loop with one client: one process, one thread, each task
sent when the previous one has returned.  A pass runs the workload's fixed
job (its task list, made from --seed) once; passes repeat until --seconds of
measuring is used, and always at least one whole pass runs.

--trace 0 reports the end-to-end metrics: set-up time (median of several
set-ups, each in a fresh process), job time (median over passes) and peak
RSS.  Times are scaled to a reference host speed measured while they run
(see HostSpeed); the raw wall times are printed beside them.

--trace 1 runs one count-only pass, one untraced pass and one pass with a
span around every public entry point of the twelve modules, and reports the
per-layer metrics in wall time (the tracing overhead compares the two timed
passes at reference speed); it writes the spans to .perfbench/ in the
checkout.

Every task's output is checked.  A wrong output, an exception or a call over
its limit is a failed task; failures never stop the run.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# set-up is reported as the median of this many set-ups, each in a fresh process
SETUP_SAMPLES = {"verify-fp7": 7, "catalog-q": 3, "albert-q": 3, "numtheory": 7}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


# -- statistics ------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values):
    """Highest percentile in PERCENTILES with at least ten samples beyond it,
    as (q, value); None when even the median has fewer than ten beyond it."""
    n = len(values)
    for q in PERCENTILES:
        if n * (100 - Fraction(str(q))) >= 1000:
            return q, percentile(values, q)
    return None


# -- host speed ------------------------------------------------------------------

# The benchmark host is shared: its speed swings by up to 2x over seconds,
# equally for every pure-Python workload.  Timings are therefore scaled to a
# reference speed measured with a fixed probe during the timed work itself.
PROBE_INTERVAL_S = 0.01  # CPU time between probes (about 1% overhead)
PROBE_REF_S = 8.5e-5  # probe duration at the reference speed


def probe() -> int:
    """Fixed integer work; it allocates nothing the garbage collector tracks."""
    acc = 1
    for i in range(1, 160):
        acc = (acc * 1000003 + i) % 18446744073709551557
        acc += math.gcd(acc, 600851475143)
    return acc


class HostSpeed:
    """Times `probe()` every PROBE_INTERVAL_S of CPU time (SIGPROF) while
    active.  Probes are evenly spaced in CPU time, so the mean of
    PROBE_REF_S / probe time over an interval is the factor that turns the
    interval's wall time into time at the reference speed."""

    def __init__(self):
        self.durations: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)

    def mark(self) -> int:
        return len(self.durations)

    def spent_since(self, mark: int) -> float:
        """Seconds spent in probes since `mark` (subtracted from timings)."""
        return sum(self.durations[mark:])

    def factor_since(self, mark: int) -> float:
        recent = self.durations[mark:]
        return statistics.fmean(PROBE_REF_S / d for d in recent) if recent else 1.0


# -- set-up ----------------------------------------------------------------------

def program_present() -> bool:
    return (SRC / "brownalg" / "__init__.py").is_file()


def timed_setup(workload):
    """Import brownalg and build the workload's first state; (seconds at
    reference speed, state)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    with HostSpeed() as speed:
        t0 = time.perf_counter()
        program = workloads.import_program()
        state = workloads.WORKLOADS[workload].setup()
        elapsed = time.perf_counter() - t0 - speed.spent_since(0)
    if not Path(program.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: brownalg imported from {program.__file__}, not from {SRC}")
    return elapsed * speed.factor_since(0), state


def setup_probe(workload) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- the closed loop ---------------------------------------------------------------

def digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def run_pass(tasks, speed, on_task=None):
    """One pass over the job: (seconds at reference speed, [(latency s, error
    or None, output digest or exception name)]).  The pass time is the sum of
    the task latencies, so the benchmark's own checks and the probes are not
    in it; a call stopped at its wall-clock limit is charged the limit."""
    import workloads

    results = []
    start = speed.mark()
    charged = 0.0
    for i, task in enumerate(tasks):
        if on_task is not None:
            on_task(i)
        mark = speed.mark()
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a failing task is counted, never fatal
            latency = time.perf_counter() - t0 - speed.spent_since(mark)
            if isinstance(exc, workloads.CallTimeout):
                charged += exc.limit_s
            results.append((latency, f"{task.label}: {type(exc).__name__}: {exc}", type(exc).__name__))
            continue
        latency = time.perf_counter() - t0 - speed.spent_since(mark)
        try:
            error = task.check(out)
        except Exception as exc:
            error = f"{task.label}: check raised {type(exc).__name__}: {exc}"
        results.append((latency, error, digest(out)))
    measured = sum(r[0] for r in results if r[2] != "CallTimeout")
    return measured * speed.factor_since(start) + charged, results


class Tally:
    """Tasks attempted and failed.  Outputs are correct unless a check failed
    or a task raised; a call over its limit is a failure with no output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.over_limit = 0
        self.errors: list[str] = []

    def add(self, results):
        for _, error, outcome in results:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.over_limit += outcome == "CallTimeout"
                if error not in self.errors:
                    self.errors.append(error)

    @property
    def correct(self) -> bool:
        return self.failed == self.over_limit


def measure(wl, state, tasks, seconds, tally):
    """Passes until the time is used (at least one): pass times at reference
    speed, and raw wall times of passes and tasks."""
    pass_times, walls, latencies = [], [], []
    t_start = time.perf_counter()
    with HostSpeed() as speed:
        while True:
            if pass_times:
                wl.reset(state)
            ref_s, results = run_pass(tasks, speed)
            tally.add(results)
            pass_times.append(ref_s)
            walls.append(sum(r[0] for r in results))
            latencies.extend(r[0] for r in results)
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * statistics.median(walls) >= seconds:
                return pass_times, walls, latencies


def traced_run(wl, state, tasks, tally):
    """Count-only, untraced and traced passes: per-layer numbers."""
    import tracer

    entries = tracer.entry_points()
    # the count-only pass goes first and warms the process for the timed two
    counters = tracer.Counters()
    with HostSpeed() as speed, tracer.installed(counters.patches(entries)):
        run_pass(tasks, speed)

    wl.reset(state)
    with HostSpeed() as speed:
        untraced_ref_s, base = run_pass(tasks, speed)
    tally.add(base)

    rec = tracer.SpanRecorder()
    wl.reset(state)
    with HostSpeed() as speed, tracer.installed(tracer.function_patches(entries, rec.make_wrapper)):
        traced_ref_s, traced = run_pass(tasks, speed, on_task=rec.set_task)
        # spans include the probes that ran inside them, so the traced job
        # time (the base of every share) includes probe time as well
        traced_s = sum(r[0] for r in traced) + speed.spent_since(0)
    tally.add(traced)
    if tracer.leftover_wrappers():
        raise RuntimeError("wrappers left installed after the traced pass")
    mismatched = [t.label for t, a, b in zip(tasks, base, traced) if a[2] != b[2]]
    if mismatched:
        tally.failed += len(mismatched)
        tally.errors.append(f"traced outputs differ from untraced ones: {mismatched}")

    names = rec.names
    per_name, per_layer, root_s = tracer.summarize(
        names, rec.name, rec.start, rec.end, rec.parent)
    metrics = {}
    for layer, (calls, self_s) in per_layer.items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / traced_s, "ratio")

    def calls(*span_names):
        return sum(per_name.get(n, (0, 0.0))[0] for n in span_names)

    def self_s(*span_names):
        return sum(per_name.get(n, (0, 0.0))[1] for n in span_names)

    mod = [n for n in names if n.startswith("kernels.mod_")]
    frac = counters.mat_mul_nonzero / counters.mat_mul_entries if counters.mat_mul_entries else 0.0
    metrics.update({
        "fields.fraction_ops": (counters.fraction_ops, "count"),
        "fields.fieldspec_calls": (counters.fieldspec_calls, "count"),
        "kernels.apply.calls": (calls("kernels.MulTable.apply"), "count"),
        "kernels.apply.self_s": (self_s("kernels.MulTable.apply"), "s"),
        "kernels.mod.self_s": (self_s(*mod), "s"),
        "linalg.mat_mul.calls": (calls("linalg.mat_mul"), "count"),
        "linalg.mat_mul.self_s": (self_s("linalg.mat_mul"), "s"),
        "linalg.mat_mul.macs": (counters.mat_mul_macs, "count"),
        "linalg.mat_mul.nonzero_frac": (frac, "ratio"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.rref.self_s": (self_s("linalg.rref"), "s"),
        "linalg.rref.cells": (counters.rref_cells, "count"),
        "linalg.in_span.calls": (calls("linalg.in_span"), "count"),
        "linalg.in_span.self_s": (self_s("linalg.in_span"), "s"),
        "brown.bmul_raw.calls": (calls("brown.BrownAlgebra.bmul_raw"), "count"),
        "brown.bmul_raw.self_s": (self_s("brown.BrownAlgebra.bmul_raw"), "s"),
        "linmaps.dagger.calls": (calls("linmaps.dagger"), "count"),
        "linmaps.dagger.self_s": (self_s("linmaps.dagger"), "s"),
        "linmaps.norm_preserving_sampled.calls": (calls("linmaps.norm_preserving_sampled"), "count"),
        "linmaps.is_inv_member.self_s": (self_s("linmaps.is_inv_member"), "s"),
        "linmaps.is_aut_member.calls": (calls("linmaps.is_aut_member"), "count"),
        "linmaps.is_aut_member.self_s": (self_s("linmaps.is_aut_member"), "s"),
        "involutions.catalogs_built": (calls("involutions.Catalog.__init__"), "count"),
        "involutions.fixed_subalgebra.self_s": (self_s("involutions.fixed_subalgebra"), "s"),
        "involutions.realize.self_s": (self_s("involutions.Catalog.realize"), "s"),
        "albert.init.self_s": (self_s("albert.AlbertAlgebra.__init__"), "s"),
        "quatclass.hilbert_symbol.self_s": (self_s("quatclass.hilbert_symbol"), "s"),
        "quatclass.hilbert_places.self_s": (self_s("quatclass.hilbert_places"), "s"),
        "kac.enumerate_solutions.self_s": (self_s("kac.enumerate_solutions"), "s"),
        "trace.job_s": (traced_s, "s"),
        "trace.remainder_s": (traced_s - root_s, "s"),
        "trace.overhead_frac": (traced_ref_s / untraced_ref_s - 1, "ratio"),
        "trace.spans": (len(rec), "count"),
    })
    return metrics, rec


# -- output ------------------------------------------------------------------------

def environment(wl, seed):
    import brownalg
    import brownalg.kernels

    return {
        "backend": brownalg.kernels.BACKEND,
        "brownalg_version": brownalg.__version__,
        "python": platform.python_version(),
        "field": wl.field,
        "workload": wl.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    setup_s, state = timed_setup(wl.name)
    tasks = wl.tasks(args.seed, state)
    env = environment(wl, args.seed)
    tally = Tally()
    notes = []
    if args.trace:
        metrics, rec = traced_run(wl, state, tasks, tally)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        rec.write_csv(spans_path)
        notes.append(f"spans: {spans_path.relative_to(ROOT)} ({len(rec)} spans)")
    else:
        samples = [setup_s] + [setup_probe(wl.name) for _ in range(SETUP_SAMPLES[wl.name] - 1)]
        pass_times, walls, latencies = measure(wl, state, tasks, args.seconds, tally)
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "job_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tail = tail_percentile(latencies)
        notes.append(f"passes: {len(pass_times)}, tasks per pass: {len(tasks)}, "
                     f"set-up samples: {len(samples)}")
        notes.append("pass seconds at reference speed: " + " ".join(f"{t:.3f}" for t in pass_times))
        notes.append("pass seconds, wall: " + " ".join(f"{t:.3f}" for t in walls))
        notes.append("set-up seconds at reference speed: " + " ".join(f"{t:.3f}" for t in samples))
        if tail and tail[0] > 50:
            tail_note = f"p{tail[0]:g} = {1000 * tail[1]:.3f} ms"
        else:
            tail_note = "no percentile above p50 has ten samples beyond it"
        notes.append(f"task wall latency over {len(latencies)} samples: "
                     f"p50 = {1000 * statistics.median(latencies):.3f} ms, {tail_note}")
        notes.append(f"fail_frac: {tally.failed / tally.attempted:.4f} ({tally.failed} of "
                     f"{tally.attempted} tasks, {tally.over_limit} over the per-call limit)")

    print(f"environment: {json.dumps(env)}")
    for note in notes:
        print(note)
    for err in tally.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, "notes": notes, "errors": tally.errors, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no brownalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(timed_setup(args.workload)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
