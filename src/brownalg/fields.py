"""Exact base fields: Q and F_p carry element arithmetic, the real place,
p-adic places and the algebraically-closed marker are classification-only tags.

Raw element representation: `fractions.Fraction` over Q (always reduced,
positive denominator), `int` in [0, p) over F_p.  The `Scalar` wrapper tags a
raw value with its field and refuses cross-field arithmetic.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, MixedFields, NonArithmeticField

RATIONALS = "Q"
PRIME = "Fp"
REAL = "R"
PADIC = "Qp"
ALG_CLOSED = "Kbar"

# The zero of Q: every `FieldSpec.zero()` over Q returns this one object, so
# kernels can skip it with `v is zero` before the Python-level
# Fraction.__bool__.
_ZERO = Fraction(0)


class Infinite:
    """Sentinel for infinite counts; compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __str__(self):
        return "infinite"


INFINITE = Infinite()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
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


@dataclass(frozen=True)
class FieldSpec:
    """Field descriptor.  Arithmetic methods operate on raw values and are
    only defined for Q and F_p; the other kinds reject them."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (RATIONALS, PRIME, REAL, PADIC, ALG_CLOSED):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME:
            if self.p is None or not is_prime(self.p) or self.p in (2, 3):
                raise ValueError(f"PrimeField needs a prime p >= 5, got {self.p}")
        elif self.kind == PADIC:
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"PadicPlace needs a prime, got {self.p}")
        elif self.p is not None:
            raise ValueError(f"{self.kind} takes no prime parameter")

    # -- descriptor grammar: "Q", "Fp:7", "R", "Qp:5", "Kbar" --------------

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        parts = text.strip().split(":")
        kind = parts[0]
        if kind in (RATIONALS, REAL, ALG_CLOSED):
            if len(parts) != 1:
                raise ValueError(f"field {kind} takes no parameter: {text!r}")
            return FieldSpec(kind)
        if kind in (PRIME, PADIC):
            if len(parts) != 2:
                raise ValueError(f"field {kind} needs a prime: {text!r}")
            return FieldSpec(kind, int(parts[1]))
        raise ValueError(f"cannot parse field spec {text!r}")

    def __str__(self):
        return self.kind if self.p is None else f"{self.kind}:{self.p}"

    @property
    def is_arithmetic(self) -> bool:
        return self.kind in (RATIONALS, PRIME)

    def _need_arith(self):
        if not self.is_arithmetic:
            raise NonArithmeticField(f"{self} carries no element arithmetic")

    # -- raw element arithmetic -------------------------------------------

    def zero(self):
        self._need_arith()
        return _ZERO if self.kind == RATIONALS else 0

    def one(self):
        self._need_arith()
        return Fraction(1) if self.kind == RATIONALS else 1

    def from_int(self, n: int):
        self._need_arith()
        return Fraction(n) if self.kind == RATIONALS else n % self.p

    def coerce(self, a):
        """`a` as a raw value: an int through `from_int`, a `Fraction` as
        itself over Q; anything else raises MixedFields."""
        if isinstance(a, int):
            return self.from_int(a)
        if isinstance(a, Fraction) and self.kind == RATIONALS:
            return a
        raise MixedFields(f"{a!r} is not a value of {self}")

    def add(self, a, b):
        return a + b if self.kind == RATIONALS else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == RATIONALS else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == RATIONALS else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == RATIONALS else (-a) % self.p

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(a) if self.kind == RATIONALS else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero")
        if self.kind == RATIONALS:
            return Fraction(a) / b
        return a * pow(b, self.p - 2, self.p) % self.p

    def half(self):
        return self.div(self.one(), self.from_int(2))

    def is_square(self, a) -> bool:
        """Exact squareness test; needs element arithmetic."""
        self._need_arith()
        if self.kind == PRIME:
            return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1
        if a < 0:
            return False
        f = Fraction(a)
        return _isqrt_exact(f.numerator) and _isqrt_exact(f.denominator)

    # -- parsing and display of raw values --------------------------------

    def parse_scalar(self, text: str):
        self._need_arith()
        try:
            f = Fraction(text)
        except ZeroDivisionError:
            raise DivisionByZero(f"zero denominator in {text!r}") from None
        if self.kind == RATIONALS:
            return f
        if not f.denominator % self.p:
            raise DivisionByZero(f"denominator of {text!r} vanishes mod {self.p}")
        return f.numerator * pow(f.denominator, self.p - 2, self.p) % self.p

    def scalar_str(self, a) -> str:
        return str(a)

    # -- deterministic sampling -------------------------------------------

    def sample_vector(self, rng: random.Random, n: int, bound: int) -> tuple:
        """n raw values, each randrange(p) over F_p and
        Fraction(randint(-bound, bound), randint(1, bound)) over Q, drawn as
        CPython's `random.Random` draws them: for each range [0, m) one
        getrandbits(m.bit_length()) per try until a try falls below m.  So a
        seed gives the same values, and leaves `rng` in the same state, as
        those calls one coordinate at a time.  Over Q each value is read
        from the grid of the bound (`_fraction_grid`)."""
        self._need_arith()
        draw = rng.getrandbits
        out = []
        if self.kind == PRIME:
            p = self.p
            k = p.bit_length()
            for _ in range(n):
                r = draw(k)
                while r >= p:
                    r = draw(k)
                out.append(r)
            return tuple(out)
        grid = _fraction_grid(bound)
        width = 2 * bound + 1
        kn, kd = width.bit_length(), bound.bit_length()
        for _ in range(n):
            num = draw(kn)
            while num >= width:
                num = draw(kn)
            den = draw(kd)
            while den >= bound:
                den = draw(kd)
            out.append(grid[num][den])
        return tuple(out)

    def sample_raw(self, rng: random.Random, bound: int = 10):
        """One value of `sample_vector`."""
        return self.sample_vector(rng, 1, bound)[0]

    def sample_nonzero(self, rng: random.Random, bound: int = 10):
        while True:
            v = self.sample_raw(rng, bound)
            if v:
                return v


@functools.lru_cache(maxsize=16)
def _fraction_grid(bound: int):
    """grid[num + bound][den - 1] = Fraction(num, den) for |num| <= bound and
    1 <= den <= bound, with the shared `_ZERO` for num = 0."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    return tuple(tuple(Fraction(num, den) if num else _ZERO for den in range(1, bound + 1))
                 for num in range(-bound, bound + 1))


def Q() -> FieldSpec:
    return FieldSpec(RATIONALS)


def Fp(p: int) -> FieldSpec:
    return FieldSpec(PRIME, p)


def Rplace() -> FieldSpec:
    return FieldSpec(REAL)


def Qp(p: int) -> FieldSpec:
    return FieldSpec(PADIC, p)


def Kbar() -> FieldSpec:
    return FieldSpec(ALG_CLOSED)


def _isqrt_exact(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class Scalar:
    """Exact field element tagged with its field."""

    value: object
    field: FieldSpec

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return other
        return Scalar(self.field.coerce(other), self.field)

    def __add__(self, other):
        o = self._coerce(other)
        return Scalar(self.field.add(self.value, o.value), self.field)

    def __sub__(self, other):
        o = self._coerce(other)
        return Scalar(self.field.sub(self.value, o.value), self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        return Scalar(self.field.mul(self.value, o.value), self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        return Scalar(self.field.div(self.value, o.value), self.field)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.field.neg(self.value), self.field)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == self.field.from_int(other)
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.field))

    def __bool__(self):
        return bool(self.value)

    def __str__(self):
        return self.field.scalar_str(self.value)

    def __repr__(self):
        return f"Scalar({self.value!r}, {self.field})"


def scalar(field: FieldSpec, value) -> Scalar:
    if isinstance(value, Scalar):
        if value.field != field:
            raise MixedFields(f"{field} vs {value.field}")
        return value
    if isinstance(value, str):
        return Scalar(field.parse_scalar(value), field)
    return Scalar(field.coerce(value), field)


def arith(x: Scalar, y: Scalar, op: str) -> Scalar:
    """Four-function exact arithmetic; '+' '-' '*' '/' (unicode aliases allowed)."""
    table = {"+": x.__add__, "-": x.__sub__, "−": x.__sub__,
             "*": x.__mul__, "×": x.__mul__, "/": x.__truediv__, "÷": x.__truediv__}
    if op not in table:
        raise ValueError(f"unknown operation {op!r}")
    return table[op](y)


def sample(field: FieldSpec, seed: int, bound: int = 10) -> Scalar:
    """Deterministic pseudo-random scalar; over Q both |num| and den are <= bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    rng = random.Random(seed)
    return Scalar(field.sample_raw(rng, bound), field)
