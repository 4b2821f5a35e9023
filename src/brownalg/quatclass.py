"""Quaternion-algebra classification via Hilbert symbols, and the class-count
reports for the G2 / F4 / E6 involution catalogs over specific fields.

All local verdicts are computed on rational data with Legendre-symbol
formulas; no p-adic element arithmetic is ever performed.

Every report is built from one table, `quaternion_classes`, which lists one
presentation (a, b) per class of quaternion algebra D over the field, the
split class first: over Kbar and F_p the split class only; over R and Q_2
also (-1, -1); over Q_p for odd p also (z, p), z the least nonresidue; over
Q also the infinite family (-1, p), p = 3 mod 4.  The table is the only code
of the reports that reads the field's kind or p.  `class_report` prints one
row format, "kind: row", at every level: a split-class row names the
catalog map that realizes it (t, and t.varpi for theta_dagger), and a
division-class row prints its presentation "D = (a, b)".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import FactorizationTooLarge, ZeroArgument
from .fields import (
    ALG_CLOSED,
    INFINITE,
    PADIC,
    PRIME,
    REAL,
    FieldSpec,
    Infinite,
    Q,
    is_prime,
)

# arguments are exact rationals: ints and Fractions, through Q's `coerce`
_QQ = Q()

# `is_prime` is deterministic below 2^64; a larger cofactor is not factored.
FACTOR_LIMIT = 2**64


def _primes_below(n: int) -> tuple:
    """Sieve of Eratosthenes (cheap enough to run at import)."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
    return tuple(q for q in range(n) if sieve[q])


_SMALL_PRIMES = _primes_below(1000)


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard rho with Brent's cycle
    search and gcds batched over 128 steps, trying c = 1, 2, ... in turn."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _odd_power_primes(n: int) -> set:
    """Primes dividing the nonzero integer n to an odd power: trial division
    by the primes below 1000, then Miller-Rabin and Pollard rho on what is
    left, which must be below FACTOR_LIMIT."""
    m = abs(n)
    exps = {}
    for q in _SMALL_PRIMES:
        if q * q > m:
            break
        while m % q == 0:
            m //= q
            exps[q] = exps.get(q, 0) + 1
    if m >= FACTOR_LIMIT:
        raise FactorizationTooLarge(
            f"{n} has a cofactor of {m.bit_length()} bits without prime factors "
            f"below 1000; factoring is limited to cofactors below 2^64"
        )
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return {q for q, e in exps.items() if e % 2}


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    """Z_p: the smallest positive quadratic nonresidue mod p (odd p)."""
    for z in range(2, p):
        if _legendre(z, p) == -1:
            return z
    raise ValueError(f"no nonresidue mod {p}")


def _split_valuation(n: int, p: int):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, place: FieldSpec) -> int:
    """(a, b)_v in {+1, -1}: local solubility of z^2 = a x^2 + b y^2.

    At Q_p the symbol depends only on the square classes, so a = n/d is
    replaced by n*d and written p^alpha * u with u a p-adic unit; Serre's
    formula (A Course in Arithmetic, ch. III, Thm. 1) then needs only the
    parity of alpha, beta and the residues of u, v (mod p, or mod 8 at p = 2).
    Nothing is factored, so the cost is a few divisions by p."""
    a, b = _QQ.coerce(a), _QQ.coerce(b)
    if not a or not b:
        raise ZeroArgument("Hilbert symbol arguments must be nonzero")
    if place.kind == REAL:
        return -1 if (a < 0 and b < 0) else 1
    if place.kind != PADIC:
        raise ValueError("hilbert_symbol is defined at the real and p-adic places")
    p = place.p
    alpha, u = _split_valuation(a.numerator * a.denominator, p)
    beta, v = _split_valuation(b.numerator * b.denominator, p)
    if p != 2:
        sign = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= _legendre(u, p)
        if alpha % 2:
            sign *= _legendre(v, p)
        return sign
    eps_u = (u - 1) // 2 % 2
    eps_v = (v - 1) // 2 % 2
    om_u = (u * u - 1) // 8 % 2
    om_v = (v * v - 1) // 8 % 2
    exp = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if exp % 2 else 1


def hilbert_places(a, b):
    """Places where the symbol can be -1: the real place, 2, and the primes
    dividing a or b to an odd power.  Raises FactorizationTooLarge when a
    numerator or denominator has a cofactor of 2^64 or more without prime
    factors below 1000."""
    a, b = _QQ.coerce(a), _QQ.coerce(b)
    primes = {2}
    for x in (a, b):
        if x:
            primes |= _odd_power_primes(x.numerator) | _odd_power_primes(x.denominator)
    return [FieldSpec(REAL)] + [FieldSpec(PADIC, p) for p in sorted(primes)]


@dataclass(frozen=True)
class QuatPresentation:
    """(a, b / k): i^2 = a, j^2 = b, ij = -ji; norm form <1, -a, -b, ab>."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _QQ.coerce(self.a))
        object.__setattr__(self, "b", _QQ.coerce(self.b))
        if not self.a or not self.b:
            raise ZeroArgument("structure constants must be nonzero")


def is_split(q: QuatPresentation, field: FieldSpec) -> bool:
    """Split over finite and algebraically closed fields; elsewhere decided by
    Hilbert symbols (over Q: +1 at every place of `hilbert_places`, which
    raises FactorizationTooLarge beyond its factoring bound)."""
    if field.kind == ALG_CLOSED:
        return True
    if field.kind == PRIME:
        for x in (q.a, q.b):
            if not x.numerator % field.p or not x.denominator % field.p:
                raise ZeroArgument("structure constant vanishes (or blows up) mod p")
        return True
    if field.kind in (REAL, PADIC):
        return hilbert_symbol(q.a, q.b, field) == 1
    return all(hilbert_symbol(q.a, q.b, v) == 1 for v in hilbert_places(q.a, q.b))


def isotropic_ternary_search(a: int, b: int, height: int) -> bool:
    """Small-height search for a nontrivial solution of z^2 = a x^2 + b y^2
    over the integers (exhaustive oracle for is_split over Q)."""
    for x in range(height + 1):
        for y in range(height + 1):
            if x == 0 and y == 0:
                continue
            val = a * x * x + b * y * y
            if val < 0:
                continue
            r = math.isqrt(val)
            if r * r == val:
                return True
    return False


# the presentation of the split class, M_2(k)
SPLIT = (1, 1)


class QuaternionClasses(NamedTuple):
    """One presentation (a, b) of each class of quaternion algebra D over a
    field, the split class (1, 1) first.  `family` is set where the classes
    are infinitely many: it names the primes p that the b of the last
    presentation runs over.  `gammas` are the diagonals gamma of the
    Hermitian form of H_3(D, gamma) that F4 tells apart for the division
    class, beyond gamma = id."""

    presentations: tuple
    family: str = ""
    gammas: tuple = ()


def quaternion_classes(field: FieldSpec) -> QuaternionClasses:
    """The table of quaternion classes (Serre, *A Course in Arithmetic*,
    ch. III): over Kbar and F_p every D splits; over R and Q_2 the division
    class is (-1, -1), and over Q_p for odd p it is (z, p) with z the least
    nonresidue mod p; over Q the division classes are infinitely many, among
    them (-1, p) for every prime p = 3 mod 4.  Over R, F4 also counts the
    division class with gamma = (-1, 1, 1)."""
    if field.kind in (ALG_CLOSED, PRIME):
        return QuaternionClasses((SPLIT,))
    if field.kind == REAL:
        return QuaternionClasses((SPLIT, (-1, -1)), gammas=((-1, 1, 1),))
    if field.kind == PADIC:
        p = field.p
        return QuaternionClasses((SPLIT, (smallest_nonresidue(p), p) if p > 2 else (-1, -1)))
    return QuaternionClasses((SPLIT, (-1, "p")), family="p = 3 mod 4")


@dataclass(frozen=True)
class ClassReport:
    field: FieldSpec
    level: str
    kinds: tuple  # ordered (name, count) pairs
    total: object
    representatives: tuple

    def as_dict(self) -> dict:
        def enc(v):
            return str(v) if isinstance(v, Infinite) else v

        return {
            "field": str(self.field),
            "level": self.level,
            "classes": {k: enc(v) for k, v in self.kinds},
            "total": enc(self.total),
            "representatives": list(self.representatives),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def class_report(field: FieldSpec, level: str) -> ClassReport:
    """The involution classes at `level` ("G2", "F4" or "E6") over `field`,
    every row built from the table `quaternion_classes` as "kind: row".

    G2 has one theta class per class of D.  F4 has one type_I class per
    class of D and per gamma of the table, and one type_II class, s.  E6
    has sigma (s), dagger (varpi), and one theta and one theta_dagger class
    per class of D.  A split-class row names the catalog map that realizes
    it: t (on J at G2 and F4, on B at E6), and t.varpi for theta_dagger.  A
    division-class row prints its presentation, "D = (a, b)", and no map.
    A kind with a row per class of D counts its rows, or INFINITE where the
    table holds a family; the total is the sum of the counts (INFINITE over
    a family)."""
    table = quaternion_classes(field)
    division = [f"D = ({a}, {b})" for a, b in table.presentations[1:]]
    if table.family:
        division[-1] += f", {table.family}: an infinite family"

    def per_class(split_row, *more):
        rows = [split_row, *division, *more]
        return INFINITE if table.family else len(rows), rows

    levels = {
        "G2": {"theta": per_class("t")},
        "F4": {"type_I": per_class("t", *[f"{division[-1]}, gamma = {g}" for g in table.gammas]),
               "type_II": (1, ["s"])},
        "E6": {"sigma": (1, ["s"]), "theta": per_class("t"),
               "dagger": (1, ["varpi"]), "theta_dagger": per_class("t.varpi")},
    }
    if level not in levels:
        raise ValueError(f"unknown level {level!r}")
    kinds = levels[level]
    counts = tuple((kind, n) for kind, (n, _) in kinds.items())
    total = INFINITE if table.family else sum(n for _, n in counts)
    reps = tuple(f"{kind}: {row}" for kind, (_, rows) in kinds.items() for row in rows)
    return ClassReport(field, level, counts, total, reps)
