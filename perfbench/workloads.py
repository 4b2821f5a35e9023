"""The four benchmark workloads: inputs made from the seed, set-up, the fixed
job of tasks, and the checks on each task's output.

brownalg is imported inside `setup()`, never at module import, because the
import is part of the measured set-up time.  Tasks reach the program through
module attributes (`inv.fixed_subalgebra`, not a name bound here) so that the
traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Per-call limit for the large-input Hilbert-symbol class (seconds).
HILBERT_LIMIT_S = 0.5


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    # returns None when the output is right, else a one-line reason
    check: Callable[[object], str | None]


class CallTimeout(Exception):
    """A call ran past its per-call limit of `limit_s` seconds."""

    def __init__(self, limit_s: float):
        super().__init__(f"over the {limit_s} s per-call limit")
        self.limit_s = limit_s


def import_program():
    import brownalg
    import brownalg.cli  # noqa: F401  (cli and verify are not imported by the package)

    return brownalg


def capture_cli(argv):
    """In-process `brownalg <argv>`: (exit code, stdout text)."""
    import brownalg.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = brownalg.cli.main(list(argv))
    return rc, buf.getvalue()


def _catalog(field):
    import brownalg.involutions as inv

    cat = inv.Catalog(field)
    cat.Jt, cat.Bt  # noqa: B018  (build the lazily constructed Tits models)
    return cat


class Workload:
    """A named job: `setup()` builds the state (timed as set-up), `tasks()`
    makes the task list from the seed, `reset()` runs between passes."""

    name = ""
    field = ""

    def setup(self):
        return {}

    def reset(self, state):
        pass


# -- verify-fp7 -----------------------------------------------------------------

class VerifyFp7(Workload):
    """The whole verification tower over F_7 on the mod-p kernel path; Q-only
    changes must leave it unchanged."""

    name = "verify-fp7"
    field = "Fp:7"

    def setup(self):
        from brownalg.fields import Fp

        return {"cat": _catalog(Fp(7))}

    def tasks(self, seed, state):
        s = random.Random(f"{self.name}:{seed}").randrange(10**6)
        argv = ["verify", "all", "--field", "Fp:7", "--samples", "100", "--seed", str(s), "--json"]

        def check(out):
            rc, text = out
            report = json.loads(text)
            if rc != 0 or report["failed"] != 0 or report["passed"] < 1:
                bad = [c["name"] for c in report["checks"] if not c["ok"]]
                return f"verify seed {s}: rc {rc}, failed checks {bad}"
            return None

        return [Task(f"verify all seed={s}", lambda: capture_cli(argv), check)]


# -- catalog-q ------------------------------------------------------------------

# descriptor, space, expected fixed dimension
CATALOG_QUERIES = (
    ("s", "J", 11), ("t", "J", 15), ("t*", "J", 15), ("t:1,1,1,1,-1,1", "J", 15),
    ("s", "B", 24), ("t", "B", 32), ("t*", "B", 32), ("varpi", "B", 28),
    ("s.varpi", "B", 28), ("t.varpi", "B", 28), ("t:1,1,1,1,-1,1", "B", 32),
)


class CatalogQ(Workload):
    """Fraction arithmetic on sparse 56x56 near-permutation maps: realize each
    catalog involution on J and B, then its fixed subalgebra."""

    name = "catalog-q"
    field = "Q"

    def setup(self):
        from brownalg.fields import Q

        return {"cat": _catalog(Q())}

    def reset(self, state):
        # a fresh catalog per pass, so every pass does the same work
        state["cat"] = self.setup()["cat"]

    def tasks(self, seed, state):
        order = list(CATALOG_QUERIES)
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return [self._task(state, desc, space, dim) for desc, space, dim in order]

    @staticmethod
    def _task(state, desc, space, dim):
        import brownalg.involutions as inv

        def run():
            cat = state["cat"]
            m = cat.realize_involution(desc, space)
            if space == "J":
                ctx = cat.J if m.basis_tag == cat.J.basis_tag else cat.Jt
            else:
                ctx = cat.B if m.basis_tag == cat.B.basis_tag else cat.Bt
            rep = inv.fixed_subalgebra(m, ctx)
            return (rep.dimension, rep.product_closed, rep.involution_closed, rep.basis)

        def check(out):
            got, closed, inv_closed, _ = out
            want_inv = True if space == "B" else None
            if (got, closed, inv_closed) != (dim, True, want_inv):
                return (f"fixed {desc} {space}: dimension {got} (want {dim}), "
                        f"product_closed {closed}, involution_closed {inv_closed}")
            return None

        return Task(f"fixed {desc} {space}", run, check)


# -- albert-q -------------------------------------------------------------------

ALBERT_ELEMENTS = 5


class AlbertQ(Workload):
    """Dense 27x27 U-operators with non-integral rationals: dagger, lift_inv
    and the Inv(J) certificate.  Zero-skipping cannot help here: the dense
    control for sparse-only gains."""

    name = "albert-q"
    field = "Q"

    def setup(self):
        from brownalg.fields import Q

        return {"cat": _catalog(Q())}

    def tasks(self, seed, state):
        cat = state["cat"]
        rng = random.Random(f"{self.name}:{seed}")
        elems = [cat.J.sample_norm_one(rng).coords for _ in range(ALBERT_ELEMENTS)]
        return [self._task(cat, x, k) for k, x in enumerate(elems)]

    @staticmethod
    def _task(cat, x, k):
        import brownalg.linmaps as lm

        J = cat.J

        def run():
            u = J.uop_matrix(x)
            u_sharp = J.uop_matrix_sharp(x)
            ux = lm.LinMap(u, J.field, lm.ALBERT, J.basis_tag)
            dag = lm.dagger(ux, J)
            u_inv = J.uop_matrix(J.jinv_raw(x))
            lifted = cat.B.lift_inv(ux)
            member = lm.is_inv_member(ux, J)
            return (u == u_sharp, dag.matrix == u_inv, lifted.dim, member, dag.matrix)

        def check(out):
            sharp_ok, dag_ok, lifted_dim, member, _ = out
            bad = [name for name, ok in (("U_x = U#_x", sharp_ok),
                                         ("dagger(U_x) = U_{x^-1}", dag_ok),
                                         ("lift_inv(U_x) is 56-dimensional", lifted_dim == 56),
                                         ("U_x in Inv(J)", member)) if not ok]
            return f"element {k}: {', '.join(bad)} failed" if bad else None

        return Task(f"U_x identities, element {k}", run, check)


# -- numtheory ------------------------------------------------------------------

HILBERT_PAIRS = 12
KAC_ORDERS = (16, 18, 20)
BAND = (20_000, 40_000)  # one prime factor of each moderate input lies here
SMOOTH_PRIMES = (2, 3, 5, 7, 11)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit n (inputs are made without the program)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if _is_prime(n):
            return n


def _moderate_int(rng):
    """(smooth part <= 25) * (prime in BAND), at most 10^6; with its primes."""
    smooth, primes = 1, set()
    for _ in range(rng.randrange(3)):
        q = rng.choice(SMOOTH_PRIMES)
        if smooth * q <= 25:
            smooth *= q
            primes.add(q)
    big = _prime_in(rng, *BAND)
    return smooth * big, primes | {big}


def _moderate_rational(rng):
    """A rational of the moderate class and a set of primes holding every
    prime that divides it."""
    (num, pn), (den, pd) = _moderate_int(rng), _moderate_int(rng)
    return Fraction(rng.choice((1, -1)) * num, den), pn | pd


def _valuation(n: int, p: int):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def reference_hilbert(a: Fraction, b: Fraction, place: str, p: int | None = None) -> int:
    """(a, b)_v from valuations and unit residues only (Serre, A Course in
    Arithmetic, ch. III, Thm. 1): no factoring, so it is fast at any size."""
    if place == "R":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _valuation(a.numerator * a.denominator, p)
    beta, v = _valuation(b.numerator * b.denominator, p)
    if p == 2:
        eps = lambda w: (w - 1) // 2 % 2  # noqa: E731
        omega = lambda w: (w * w - 1) // 8 % 2  # noqa: E731
        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    legendre = lambda w: 1 if pow(w % p, (p - 1) // 2, p) == 1 else -1  # noqa: E731
    sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
    if beta % 2:
        sign *= legendre(u)
    if alpha % 2:
        sign *= legendre(v)
    return sign


def count_kac(marks, m: int, gcd_one: bool) -> int:
    """Nonnegative solutions of sum marks[i] s[i] = m, counted by coin-change
    dynamic programming; with gcd_one, only tuples with gcd 1 (Moebius
    inversion over the common divisor, which must divide m)."""
    def count(total):
        ways = [1] + [0] * total
        for mk in marks:
            for t in range(mk, total + 1):
                ways[t] += ways[t - mk]
        return ways[total]

    if not gcd_one:
        return count(m)
    return sum(_moebius(d) * count(m // d) for d in range(1, m + 1) if m % d == 0)


def _moebius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def expected_class_total(kind: str, level: str):
    """Class totals by field kind: c quaternion classes (1, 2 or infinitely
    many); G2 has c classes, F4 has 2, 4, 3 (finite or closed, R, Q_p), E6 has
    2c + 2."""
    c = {"Kbar": 1, "Fp": 1, "R": 2, "Qp": 2, "Q": None}[kind]
    if c is None:
        return "infinite"
    if level == "G2":
        return c
    if level == "F4":
        return {"Kbar": 2, "Fp": 2, "R": 4, "Qp": 3}[kind]
    return 2 * c + 2


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise CallTimeout in the block after `seconds` of wall time (SIGALRM)."""
    def fire(signum, frame):
        raise CallTimeout(seconds)

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class NumTheory(Workload):
    """Hilbert symbols, split tests, class reports and Kac enumeration: the
    quatclass and kac modules, which do no algebra-tower work.  Large inputs
    keep the trial-division hang of `hilbert_symbol` visible as calls over
    the per-call limit."""

    name = "numtheory"
    field = "Q"

    def tasks(self, seed, state):
        rng = random.Random(f"{self.name}:{seed}")
        tasks = []
        for k in range(HILBERT_PAIRS):
            (a, pa), (b, pb) = _moderate_rational(rng), _moderate_rational(rng)
            tasks.append(self._symbols_task(a, b, k))
            tasks.append(self._split_task(a, b, pa | pb | {2}, k))
        # large class: two that finish within the limit, three that hang
        odd = rng.choice((3, 5, 7, 11, 13))
        for lo in (10**8, 10**11):
            n = _prime_in(rng, lo, 2 * lo)
            tasks.append(self._large_task(Fraction(n), Fraction(odd), odd))
        for _ in range(3):
            n = _prime_in(rng, 10**16, 2 * 10**16)
            tasks.append(self._large_task(Fraction(n), Fraction(odd), odd))
        tasks.append(self._class_task(rng))
        for m in KAC_ORDERS:
            tasks.append(self._kac_task("e6~", m, folded=False))
            tasks.append(self._kac_task("e6~2", m, folded=True))
        tasks.append(self._cli_kac_task(rng.randrange(2, 13)))
        tasks.append(self._cli_classify_task(rng.choice(("R", "Qp:3", "Qp:5", "Fp:7", "Kbar")),
                                             rng.choice(("G2", "F4", "E6"))))
        rng.shuffle(tasks)
        return tasks

    @staticmethod
    def _symbols_task(a, b, k):
        import brownalg.quatclass as qc

        def run():
            return [(str(v), qc.hilbert_symbol(a, b, v)) for v in qc.hilbert_places(a, b)]

        def check(out):
            product = 1
            for place, sym in out:
                kind, _, p = place.partition(":")
                if sym != reference_hilbert(a, b, kind, int(p) if p else None):
                    return f"pair {k}: ({a}, {b})_{place} = {sym} disagrees with the valuation formula"
                product *= sym
            if product != 1:
                return f"pair {k}: Hilbert reciprocity fails for ({a}, {b})"
            return None

        return Task(f"hilbert symbols, pair {k}", run, check)

    @staticmethod
    def _split_task(a, b, primes, k):
        import brownalg.fields as fl
        import brownalg.quatclass as qc

        def run():
            return qc.is_split(qc.QuatPresentation(a, b), fl.Q())

        def check(out):
            # (a, b)_p = 1 at odd primes dividing neither a nor b
            want = reference_hilbert(a, b, "R") == 1 and all(
                reference_hilbert(a, b, "Qp", p) == 1 for p in primes)
            return None if out == want else f"pair {k}: is_split({a}, {b}) = {out}, want {want}"

        return Task(f"is_split, pair {k}", run, check)

    @staticmethod
    def _large_task(a, b, p):
        import brownalg.fields as fl
        import brownalg.quatclass as qc

        def run():
            with time_limit(HILBERT_LIMIT_S):
                return qc.hilbert_symbol(a, b, fl.Qp(p))

        def check(out):
            want = reference_hilbert(a, b, "Qp", p)
            return None if out == want else f"({a}, {b})_{p} = {out}, want {want}"

        return Task(f"hilbert symbol at Qp:{p}, |a| ~ 10^{len(str(a.numerator)) - 1}", run, check)

    @staticmethod
    def _class_task(rng):
        import brownalg.fields as fl
        import brownalg.quatclass as qc

        odd = rng.choice((3, 5, 7, 11, 13))
        fields = [fl.Q(), fl.Fp(rng.choice((5, 7, 11, 13))), fl.Rplace(), fl.Qp(2), fl.Qp(odd), fl.Kbar()]

        def run():
            return [(f.kind, lvl, str(qc.class_report(f, lvl).total))
                    for f in fields for lvl in ("G2", "F4", "E6")]

        def check(out):
            for kind, lvl, total in out:
                want = str(expected_class_total(kind, lvl))
                if total != want:
                    return f"class_report {kind} {lvl}: total {total}, want {want}"
            return None

        return Task("class_report, every field x level", run, check)

    @staticmethod
    def _kac_task(diagram, m, folded):
        import brownalg.kac as kac

        marks = (1, 2, 3, 4, 2) if folded else (1, 1, 2, 3, 2, 2, 1)

        def run():
            sols = kac.enumerate_solutions(kac.load_diagram(diagram), m, folded=folded)
            return [(s.s, s.residual) for s in sols]

        def check(out):
            want = count_kac(marks, m, gcd_one=not folded)
            return None if len(out) == want else f"kac {diagram} m={m}: {len(out)} solutions, want {want}"

        return Task(f"kac {diagram} m={m}", run, check)

    @staticmethod
    def _cli_kac_task(m):
        def run():
            return capture_cli(["kac", "e6~", str(m), "--json"])

        def check(out):
            rc, text = out
            got = len(json.loads(text)["solutions"]) if rc == 0 else None
            want = count_kac((1, 1, 2, 3, 2, 2, 1), m, gcd_one=True)
            return None if got == want else f"brownalg kac e6~ {m}: rc {rc}, {got} solutions, want {want}"

        return Task(f"cli kac e6~ {m}", run, check)

    @staticmethod
    def _cli_classify_task(field, level):
        def run():
            return capture_cli(["classify", field, level, "--json"])

        def check(out):
            rc, text = out
            got = json.loads(text)["total"] if rc == 0 else None
            want = expected_class_total(field.partition(":")[0], level)
            return None if got == want else f"brownalg classify {field} {level}: rc {rc}, total {got}, want {want}"

        return Task(f"cli classify {field} {level}", run, check)


WORKLOADS = {w.name: w for w in (VerifyFp7(), CatalogQ(), AlbertQ(), NumTheory())}
