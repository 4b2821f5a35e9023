"""Tracing for the benchmark, installed from outside the program.

Two instruments, never active together:

* `SpanRecorder` wraps every public entry point of the twelve brownalg
  modules and records one span (name, start, end, parent, task id) per call.
  Spans stay in memory until the run ends.  `summarize` turns them into
  calls and self time per entry point and per module (layer).
* `Counters` counts the hot scalar calls (`Fraction` arithmetic and
  comparisons, `FieldSpec` arithmetic) and the work done by `mat_mul` and
  `rref`, in a pass of its own: counting every scalar call costs about as
  much as the work itself and would distort the timed self times.

`installed(patches)` puts wrappers in place and always takes them out again.
A wrapped function is replaced in every brownalg namespace that binds it,
because `from .linalg import mat_mul` binds a separate name in each
importing module.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fractions
import gzip
import importlib
import sys
import time
import types
from array import array

LAYERS = (
    "fields",
    "kernels",
    "linalg",
    "cayley",
    "albert",
    "brown",
    "linmaps",
    "involutions",
    "verify",
    "kac",
    "quatclass",
    "cli",
)

# FieldSpec scalar arithmetic runs millions of times per job: counted, not timed.
FIELD_ARITH = ("zero", "one", "from_int", "add", "sub", "mul", "neg", "inv", "div", "half")

# Fraction arithmetic and comparisons (truth tests compare with zero).
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
    "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
)

WRAPPED_MARK = "__perfbench_wrapped__"


@dataclasses.dataclass(frozen=True)
class EntryPoint:
    name: str  # "<layer>.<function>" or "<layer>.<Class>.<method>"
    owner: object  # defining module or class
    attr: str
    func: object  # the plain function (unwrapped from static/classmethod)


def _brownalg_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "brownalg" or k.startswith("brownalg."))]


def _is_program_function(obj, module_name: str) -> bool:
    if not isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)):
        return False
    origin = getattr(obj, "__module__", None) or ""
    # private brownalg modules (the mod-p kernel twins) are re-exported by kernels
    return origin == module_name or origin.startswith("brownalg._")


def entry_points():
    """Public functions and public methods (plus `__init__`) of each layer."""
    out, seen = [], set()
    for layer in LAYERS:
        mod = importlib.import_module(f"brownalg.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if _is_program_function(obj, mod.__name__) and id(obj) not in seen:
                seen.add(id(obj))
                out.append(EntryPoint(f"{layer}.{attr}", mod, attr, obj))
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                out.extend(_methods(layer, obj))
    return out


def _methods(layer, cls):
    for attr, raw in sorted(vars(cls).items()):
        if attr == "__init__":
            if dataclasses.is_dataclass(cls):
                continue
        elif attr.startswith("_"):
            continue
        if cls.__name__ == "FieldSpec" and attr in FIELD_ARITH:
            continue
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if isinstance(func, types.FunctionType):
            yield EntryPoint(f"{layer}.{cls.__name__}.{attr}", cls, attr, func)


def function_patches(entries, make_wrapper):
    """(owner, attr, replacement) triples that wrap each entry point everywhere
    it is bound."""
    patches = []
    modules = _brownalg_modules()
    for ep in entries:
        wrapper = make_wrapper(ep)
        setattr(wrapper, WRAPPED_MARK, True)
        if isinstance(ep.owner, type):
            raw = ep.owner.__dict__[ep.attr]
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(wrapper)
            patches.append((ep.owner, ep.attr, wrapper))
            continue
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is ep.func:
                    patches.append((mod, attr, wrapper))
    return patches


@contextlib.contextmanager
def installed(patches):
    """Apply (owner, attr, replacement) patches; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, new in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def leftover_wrappers():
    """Names in brownalg namespaces (and Fraction) that still hold a wrapper."""
    found = []
    holders = [(m.__name__, vars(m)) for m in _brownalg_modules()]
    for mod in _brownalg_modules():
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__.startswith("brownalg"):
                holders.append((f"{mod.__name__}.{attr}", vars(obj)))
    holders.append(("fractions.Fraction", vars(fractions.Fraction)))
    for where, ns in holders:
        for attr, obj in ns.items():
            inner = getattr(obj, "__func__", obj)
            if getattr(inner, WRAPPED_MARK, False):
                found.append(f"{where}.{attr}")
    return found


class SpanRecorder:
    """In-memory spans in parallel arrays; span i's parent is an index or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._state = [-1, -1]  # current open span, current task

    def set_task(self, task_id: int):
        self._state[1] = task_id

    def __len__(self):
        return len(self.name)

    def make_wrapper(self, ep: EntryPoint):
        nid = self._ids.setdefault(ep.name, len(self.names))
        if nid == len(self.names):
            self.names.append(ep.name)
        fn, state = ep.func, self._state
        sname, sparent, stask = self.name, self.parent, self.task
        sstart, send = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(sname)
            sname.append(nid)
            sparent.append(state[0])
            stask.append(state[1])
            sstart.append(0.0)
            send.append(0.0)
            state[0] = i
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                send[i] = clock()
                sstart[i] = t0
                state[0] = sparent[i]

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        return wrapper

    def rows(self):
        """(name, start, end, parent, task) per span, in call order."""
        names = self.names
        return [
            (names[n], s, e, p, t)
            for n, s, e, p, t in zip(self.name, self.start, self.end, self.parent, self.task)
        ]

    def write_csv(self, path):
        """Gzipped CSV, one row per span; a span's index is its row number."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,task\n")
            for n, s, e, p, t in self.rows():
                fh.write(f"{n},{s:.9f},{e:.9f},{p},{t}\n")


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus the time its child spans
    cover.  Spans come from one thread, so children nest inside their parent
    and siblings never overlap; summing child durations measures the cover."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def summarize(names, name_ids, starts, ends, parents):
    """Per entry point and per layer: calls and self seconds; plus the total
    duration of root spans (the instrumented part of the job)."""
    own = self_times(starts, ends, parents)
    per_name = {}
    root_s = 0.0
    for i, nid in enumerate(name_ids):
        name = names[nid]
        calls, self_s = per_name.get(name, (0, 0.0))
        per_name[name] = (calls + 1, self_s + own[i])
        if parents[i] < 0:
            root_s += ends[i] - starts[i]
    per_layer = {layer: (0, 0.0) for layer in LAYERS}
    for name, (calls, self_s) in per_name.items():
        layer = name.split(".", 1)[0]
        c, s = per_layer[layer]
        per_layer[layer] = (c + calls, s + self_s)
    return per_name, per_layer, root_s


class Counters:
    """Count-only instrumentation: scalar call counts and computed work."""

    def __init__(self):
        self._fraction = [0]
        self._fieldspec = [0]
        self.mat_mul_macs = 0
        self.mat_mul_nonzero = 0
        self.mat_mul_entries = 0
        self.rref_cells = 0

    @property
    def fraction_ops(self) -> int:
        return self._fraction[0]

    @property
    def fieldspec_calls(self) -> int:
        return self._fieldspec[0]

    def patches(self, entries):
        from brownalg.fields import FieldSpec

        frac = vars(fractions.Fraction)
        out = [(fractions.Fraction, op, _counting(frac[op], self._fraction))
               for op in FRACTION_OPS if op in frac]
        out += [(FieldSpec, op, _counting(vars(FieldSpec)[op], self._fieldspec))
                for op in FIELD_ARITH]
        inspectors = {"linalg.mat_mul": self._mat_mul, "linalg.rref": self._rref}
        chosen = [ep for ep in entries if ep.name in inspectors]
        out += function_patches(chosen, lambda ep: inspectors[ep.name](ep.func))
        return out

    def _mat_mul(self, fn):
        def wrapper(a, b, field):
            n, k, m = len(a), len(b), len(b[0]) if b else 0
            self.mat_mul_macs += n * k * m
            self.mat_mul_entries += n * k
            self.mat_mul_nonzero += sum(1 for row in a for v in row if v)
            return fn(a, b, field)

        return wrapper

    def _rref(self, fn):
        def wrapper(a, field):
            self.rref_cells += len(a) * (len(a[0]) if a else 0)
            return fn(a, field)

        return wrapper


def _counting(fn, box):
    def wrapper(*args, **kwargs):
        box[0] += 1
        return fn(*args, **kwargs)

    setattr(wrapper, WRAPPED_MARK, True)
    return wrapper
